#include "common.hpp"

#include <dirent.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>

namespace xspbench {

namespace {

std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/// JSON string literal (names here are plain ASCII identifiers and paths).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_metrics(std::string& out, const std::map<std::string, Metric>& metrics) {
  out += '{';
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) out += ',';
    first = false;
    out += quoted(name) + ":{\"value\":" + number(m.value) + ",\"unit\":" + quoted(m.unit) + '}';
  }
  out += '}';
}

void append_strings(std::string& out, const std::map<std::string, std::string>& strings) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : strings) {
    if (!first) out += ',';
    first = false;
    out += quoted(k) + ':' + quoted(v);
  }
  out += '}';
}

}  // namespace

std::int64_t process_cpu_ns() { return clock_ns(CLOCK_PROCESS_CPUTIME_ID); }
std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

int current_tid() { return static_cast<int>(::syscall(SYS_gettid)); }

std::int64_t task_cpu_ns(int tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  std::int64_t on_cpu = 0;
  if (!(in >> on_cpu)) return 0;
  return on_cpu;
}

std::vector<int> task_ids() {
  std::vector<int> ids;
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return ids;
  while (const dirent* e = ::readdir(dir)) {
    if (e->d_name[0] >= '0' && e->d_name[0] <= '9') ids.push_back(std::atoi(e->d_name));
  }
  ::closedir(dir);
  return ids;
}

namespace {

/// The probe's job: map a private 352 KiB region and fault in every page
/// of it, then hash, insert (open addressing), sort and copy over it, and
/// unmap it. The workloads it scales pay page faults, system calls and
/// compute, so the probe pays all three.
std::uint64_t probe_job() {
  constexpr std::size_t kSrc = 16384, kTable = 8192, kSorted = 4096;
  constexpr std::size_t kBytes = (2 * kSrc + kTable + kSorted) * sizeof(std::uint64_t);
  void* mem = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) std::abort();
  auto* const src = static_cast<std::uint64_t*>(mem);
  auto* const dst = src + kSrc;
  auto* const table = dst + kSrc;
  auto* const sorted = table + kTable;
  std::uint64_t state = 42;
  for (std::size_t i = 0; i < kSrc; ++i) src[i] = splitmix64(state);
  std::fill(table, table + kTable, 0);
  for (std::size_t i = 0; i < kSorted; ++i) {
    std::size_t slot = src[i] & (kTable - 1);
    while (table[slot] != 0) slot = (slot + 1) & (kTable - 1);
    table[slot] = src[i] | 1;
  }
  std::copy(src, src + kSorted, sorted);
  std::sort(sorted, sorted + kSorted);
  std::copy(src, src + kSrc, dst);
  const std::uint64_t out = sorted[0] + dst[1] + table[7];
  ::munmap(mem, kBytes);
  return out;
}

}  // namespace

std::int64_t host_probe_ns() {
  std::uint64_t sink = probe_job();  // warm the code and allocator paths
  std::array<std::int64_t, 3> t{};
  for (auto& v : t) {
    const std::int64_t t0 = mono_ns();
    sink += probe_job();
    v = mono_ns() - t0;
  }
  if (sink == 0) std::abort();  // keeps the work observable
  std::sort(t.begin(), t.end());
  return t[1];
}

double HostSpeed::sample() {
  std::vector<double> probes;
  for (int i = 0; i < 3; ++i) probes.push_back(static_cast<double>(host_probe_ns()));
  samples_.push_back(median(std::move(probes)) / kReferenceProbeNs);
  return samples_.back();
}

std::int64_t rss_bytes() {
  std::ifstream in("/proc/self/statm");
  std::int64_t size = 0;
  std::int64_t resident = 0;
  if (!(in >> size >> resident)) return 0;
  return resident * static_cast<std::int64_t>(::sysconf(_SC_PAGESIZE));
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

double hd_quantile(std::vector<double> values, double q) {
  if (values.size() < 2) return values.empty() ? 0 : values[0];
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const double a = q * (n + 1);
  const double b = (1 - q) * (n + 1);
  const double log_beta = std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
  // Order statistic i weighs the Beta(a, b) mass over [i/n, (i+1)/n],
  // integrated by the midpoint rule.
  constexpr int kSteps = 64;
  double sum = 0;
  double total = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    double w = 0;
    for (int k = 0; k < kSteps; ++k) {
      const double x = (static_cast<double>(i) + (k + 0.5) / kSteps) / n;
      w += std::exp((a - 1) * std::log(x) + (b - 1) * std::log1p(-x) - log_beta);
    }
    sum += w * values[i];
    total += w;
  }
  return sum / total;
}

void LogHistogram::merge(const LogHistogram& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double LogHistogram::midpoint(std::size_t i) noexcept {
  if (i < kSub) return static_cast<double>(i);
  const std::size_t shift = i / kSub - 1;
  const double lo = std::ldexp(static_cast<double>(kSub + i % kSub), static_cast<int>(shift));
  return lo + std::ldexp(0.5, static_cast<int>(shift)) - 0.5;
}

double LogHistogram::quantile(double q) const noexcept {
  if (total_ == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= std::max<std::uint64_t>(rank, 1)) return midpoint(i);
  }
  return max();
}

double LogHistogram::tail_mean(double q) const noexcept {
  const auto want = static_cast<std::uint64_t>(
      std::ceil((1 - q) * static_cast<double>(total_)));
  if (want == 0) return max();
  std::uint64_t taken = 0;
  double sum = 0;
  for (std::size_t i = kBuckets; i-- > 0 && taken < want;) {
    const std::uint64_t n = std::min(counts_[i], want - taken);
    sum += static_cast<double>(n) * midpoint(i);
    taken += n;
  }
  return sum / static_cast<double>(taken);
}

double LogHistogram::max() const noexcept {
  for (std::size_t i = kBuckets; i-- > 0;) {
    if (counts_[i] != 0) return midpoint(i);
  }
  return 0;
}

std::uint32_t Ledger::add(const char* name, std::int64_t begin, std::int64_t end,
                          std::uint32_t parent) {
  if (!enabled_) return 0;
  const int tid = current_tid();
  std::lock_guard lk(mu_);
  const std::uint32_t id = next_id_++;
  spans_.push_back({name, begin, end, id, parent, tid});
  return id;
}

std::uint32_t Ledger::reserve_id() {
  if (!enabled_) return 0;
  std::lock_guard lk(mu_);
  return next_id_++;
}

void Ledger::add_with_id(std::uint32_t id, const char* name, std::int64_t begin,
                         std::int64_t end, std::uint32_t parent) {
  if (!enabled_) return;
  const int tid = current_tid();
  std::lock_guard lk(mu_);
  spans_.push_back({name, begin, end, id, parent, tid});
}

bool Ledger::write(const std::string& path, const std::map<std::string, std::string>& context,
                   const Report& report) const {
  std::string out = "{\"context\":";
  append_strings(out, context);
  out += ",\"end_to_end\":";
  append_metrics(out, report.end_to_end);
  out += ",\"layers\":";
  append_metrics(out, report.layers);
  out += ",\"detail\":";
  append_metrics(out, report.detail);
  out += ",\"spans\":[";
  {
    std::lock_guard lk(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      if (i != 0) out += ",\n";
      out += "{\"id\":" + std::to_string(s.id) + ",\"parent\":" + std::to_string(s.parent) +
             ",\"name\":" + quoted(s.name) + ",\"begin_ns\":" + std::to_string(s.begin) +
             ",\"end_ns\":" + std::to_string(s.end) + ",\"tid\":" + std::to_string(s.tid) + '}';
    }
  }
  out += "]}\n";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  return std::fclose(f) == 0 && ok;
}

/// The result line every run ends with (run.py parses the last stdout line).
std::string report_json(const Report& r, const std::map<std::string, std::string>& context) {
  std::string out = "{\"workload\":" + quoted(r.workload) +
                    ",\"correct\":" + (r.check_failures.empty() ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(r.attempted) +
                    ",\"failed\":" + std::to_string(r.failed) + ",\"end_to_end\":";
  append_metrics(out, r.end_to_end);
  out += ",\"layers\":";
  append_metrics(out, r.layers);
  out += ",\"detail\":";
  append_metrics(out, r.detail);
  out += ",\"check_failures\":[";
  for (std::size_t i = 0; i < r.check_failures.size(); ++i) {
    if (i != 0) out += ',';
    out += quoted(r.check_failures[i]);
  }
  out += "],\"info\":";
  append_strings(out, r.info);
  out += ",\"context\":";
  append_strings(out, context);
  return out + "}";
}

}  // namespace xspbench
