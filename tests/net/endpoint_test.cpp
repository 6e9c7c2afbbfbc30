// Endpoint URI parsing and the RxBuffer reassembly primitive — the two
// pure (fd-free) pieces of the net layer.
#include "xsp/net/endpoint.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <string>

#include "xsp/net/socket.hpp"

namespace xsp::net {
namespace {

TEST(Endpoint, ParsesUnixPath) {
  const Endpoint ep = Endpoint::parse("unix:/tmp/xsp.sock");
  EXPECT_EQ(ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(ep.path, "/tmp/xsp.sock");
  EXPECT_EQ(ep.uri(), "unix:/tmp/xsp.sock");
}

TEST(Endpoint, ToleratesTripleSlashUnixForm) {
  // "unix:///path" is the common URI spelling; both resolve to /path.
  const Endpoint ep = Endpoint::parse("unix:///run/xsp/collect.sock");
  EXPECT_EQ(ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(ep.path, "/run/xsp/collect.sock");
}

TEST(Endpoint, ParsesTcpHostPort) {
  const Endpoint ep = Endpoint::parse("tcp://127.0.0.1:7450");
  EXPECT_EQ(ep.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, 7450);
  EXPECT_EQ(ep.uri(), "tcp://127.0.0.1:7450");
}

TEST(Endpoint, ParsesTcpPortZeroForEphemeralBind) {
  const Endpoint ep = Endpoint::parse("tcp://localhost:0");
  EXPECT_EQ(ep.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(ep.port, 0);
}

TEST(Endpoint, RejectsMalformedUris) {
  EXPECT_THROW(Endpoint::parse(""), NetError);
  EXPECT_THROW(Endpoint::parse("/tmp/no-scheme.sock"), NetError);
  EXPECT_THROW(Endpoint::parse("udp://127.0.0.1:1"), NetError);
  EXPECT_THROW(Endpoint::parse("unix:"), NetError);
  EXPECT_THROW(Endpoint::parse("tcp://hostonly"), NetError);
  EXPECT_THROW(Endpoint::parse("tcp://h:notaport"), NetError);
  EXPECT_THROW(Endpoint::parse("tcp://h:70000"), NetError);
}

TEST(Endpoint, RejectsUnixPathBeyondSunPathLimit) {
  // sockaddr_un::sun_path is ~108 bytes; a longer path must fail at
  // parse time, not as a silent truncation at bind.
  const std::string long_path = "unix:/" + std::string(200, 'x');
  EXPECT_THROW(Endpoint::parse(long_path), NetError);
}

TEST(RxBuffer, AppendsAndConsumesAcrossChunkBoundaries) {
  RxBuffer rx;
  rx.append("abc");
  rx.append("defgh");
  EXPECT_EQ(rx.size(), 8u);
  EXPECT_EQ(rx.data(), "abcdefgh");
  rx.consume(3);
  EXPECT_EQ(rx.data(), "defgh");
  rx.consume(5);
  EXPECT_EQ(rx.size(), 0u);
}

TEST(RxBuffer, TrickleConsumptionStaysCoherent) {
  // One-byte-per-tick consumption (the pattern that would go quadratic
  // with eager memmove) must keep data() exact throughout.
  RxBuffer rx;
  std::string all;
  for (int i = 0; i < 10000; ++i) all += static_cast<char>('a' + i % 26);
  rx.append(all);
  std::string seen;
  while (rx.size() > 0) {
    seen += rx.data()[0];
    rx.consume(1);
  }
  EXPECT_EQ(seen, all);
}

TEST(RxBuffer, ClearResetsEverything) {
  RxBuffer rx;
  rx.append("leftover frame bytes");
  rx.consume(4);
  rx.clear();
  EXPECT_EQ(rx.size(), 0u);
  rx.append("fresh");
  EXPECT_EQ(rx.data(), "fresh");
}

TEST(RxBuffer, CompactionKeepsTheLiveSuffixInPlace) {
  RxBuffer rx;
  char* base = rx.prepare(8);
  std::memcpy(base, "abcdefgh", 8);
  rx.commit(8);
  rx.consume(6);
  // No room left; the 6 dead bytes outweigh the 2 live ones, so the live
  // suffix moves to the front of the same storage.
  char* tail = rx.prepare(6);
  EXPECT_EQ(rx.data(), "gh");
  EXPECT_EQ(rx.data().data(), base);
  EXPECT_EQ(tail, base + 2);
  std::memcpy(tail, "ijklmn", 6);
  rx.commit(6);
  EXPECT_EQ(rx.data(), "ghijklmn");
}

TEST(RxBuffer, GrowthKeepsTheLiveSuffix) {
  RxBuffer rx;
  rx.append("0123456789");
  rx.consume(3);
  // 3 dead bytes do not pay for moving 7 live ones: grow instead.
  char* tail = rx.prepare(100);
  EXPECT_EQ(rx.data(), "3456789");
  EXPECT_EQ(tail, rx.data().data() + rx.size());
  std::memcpy(tail, "abc", 3);
  rx.commit(3);
  EXPECT_EQ(rx.data(), "3456789abc");
}

TEST(RxBuffer, PartialCommitKeepsOnlyTheCommittedPrefix) {
  RxBuffer rx;
  rx.append("xy");
  char* tail = rx.prepare(64);
  std::memcpy(tail, "0123456789", 10);
  rx.commit(4);
  EXPECT_EQ(rx.data(), "xy0123");
  // The next prepare continues right after the committed bytes.
  tail = rx.prepare(64);
  EXPECT_EQ(tail, rx.data().data() + rx.size());
  rx.commit(0);
  EXPECT_EQ(rx.data(), "xy0123");
}

TEST(RxBuffer, DataStaysContiguousUnderRandomReadsAndConsumes) {
  // A std::string model of the same stream: data() must always equal
  // the model's unconsumed bytes, through every compaction and growth.
  std::mt19937 rng(7);
  RxBuffer rx;
  std::string model;
  std::size_t next = 0;
  for (int step = 0; step < 20000; ++step) {
    const std::size_t want = 1 + rng() % 300;
    char* dst = rx.prepare(want);
    const std::size_t got = rng() % (want + 1);
    for (std::size_t i = 0; i < got; ++i, ++next) {
      dst[i] = static_cast<char>('a' + next % 23);
      model += dst[i];
    }
    rx.commit(got);
    const std::size_t eat = rng() % (rx.size() + 1);
    rx.consume(eat);
    model.erase(0, eat);
    ASSERT_EQ(rx.data(), model) << "step " << step;
  }
}

}  // namespace
}  // namespace xsp::net
