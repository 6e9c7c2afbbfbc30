#include "xsp/models/builder.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "xsp/common/string_table.hpp"
#include "xsp/models/registry.hpp"

namespace xsp::models {
namespace {

TEST(GraphBuilder, InputCreatesDataLayer) {
  GraphBuilder b("m", 4, true);
  b.input(3, 224, 224);
  const auto& g = b.peek();
  ASSERT_EQ(g.layers.size(), 1u);
  EXPECT_EQ(g.layers[0].type, LayerType::kData);
  EXPECT_EQ(g.layers[0].output, (Shape4{4, 3, 224, 224}));
}

TEST(GraphBuilder, ConvTracksShapeAndParams) {
  GraphBuilder b("m", 1, true);
  b.input(3, 224, 224).conv(64, 7, 2, 3);
  EXPECT_EQ(b.shape(), (Shape4{1, 64, 112, 112}));
  const auto& conv = b.peek().layers.back();
  EXPECT_DOUBLE_EQ(conv.param_bytes, 64.0 * 3 * 7 * 7 * 4);
}

TEST(GraphBuilder, ConvDefaultPadIsSame) {
  GraphBuilder b("m", 1, true);
  b.input(16, 28, 28).conv(32, 3);  // stride 1, pad k/2
  EXPECT_EQ(b.shape(), (Shape4{1, 32, 28, 28}));
}

TEST(GraphBuilder, BatchNormDecompositionSwitch) {
  GraphBuilder tf("tf", 1, true);
  tf.input(3, 8, 8).conv(4, 3).batch_norm();
  EXPECT_EQ(tf.peek().layers.size(), 4u);  // Data, Conv, Mul, Add
  EXPECT_EQ(tf.peek().layers[2].type, LayerType::kMul);
  EXPECT_EQ(tf.peek().layers[3].type, LayerType::kAdd);

  GraphBuilder mx("mx", 1, false);
  mx.input(3, 8, 8).conv(4, 3).batch_norm();
  EXPECT_EQ(mx.peek().layers.size(), 3u);  // Data, Conv, FusedBatchNorm
  EXPECT_EQ(mx.peek().layers[2].type, LayerType::kFusedBatchNorm);
}

TEST(GraphBuilder, TensorFlowScopeNaming) {
  // First instance bare, later instances suffixed (paper's
  // "conv2d/Conv2D" ... "conv2d_48/Conv2D").
  GraphBuilder b("m", 1, true);
  b.input(3, 8, 8).conv(4, 1).conv(4, 1).conv(4, 1);
  const auto& layers = b.peek().layers;
  EXPECT_EQ(layers[1].name, "conv2d/Conv2D");
  EXPECT_EQ(layers[2].name, "conv2d_1/Conv2D");
  EXPECT_EQ(layers[3].name, "conv2d_2/Conv2D");
}

TEST(GraphBuilder, RectangularConvGeometryAndParams) {
  // Factorized 1x7 / 7x1 pair (Inception module B style).
  GraphBuilder b("m", 1, true);
  b.input(768, 17, 17);
  b.conv_rect(192, 1, 7);
  EXPECT_EQ(b.shape(), (Shape4{1, 192, 17, 17}));
  const Layer h7 = b.peek().layers.back();  // copy: later appends may reallocate
  EXPECT_EQ(h7.kernel_hw, 1);
  EXPECT_EQ(h7.kernel_w2, 7);
  EXPECT_DOUBLE_EQ(h7.param_bytes, 192.0 * 768 * 1 * 7 * 4);

  b.conv_rect(192, 7, 1);
  EXPECT_EQ(b.shape(), (Shape4{1, 192, 17, 17}));
  // The factorized pair costs far less than a dense 7x7.
  GraphBuilder dense("d", 1, true);
  dense.input(768, 17, 17);
  dense.conv(192, 7);
  EXPECT_LT(h7.param_bytes * 2, dense.peek().layers.back().param_bytes);
}

TEST(GraphBuilder, DepthwiseKeepsChannels) {
  GraphBuilder b("m", 2, true);
  b.input(32, 56, 56).depthwise(3, 2);
  EXPECT_EQ(b.shape(), (Shape4{2, 32, 28, 28}));
}

TEST(GraphBuilder, PoolingGeometry) {
  GraphBuilder b("m", 1, true);
  b.input(64, 112, 112).max_pool(3, 2);
  EXPECT_EQ(b.shape().h, 55);
  b.global_avg_pool();
  EXPECT_EQ(b.shape(), (Shape4{1, 64, 1, 1}));
}

TEST(GraphBuilder, FcFlattensAndAddsBias) {
  GraphBuilder b("m", 8, true);
  b.input(64, 7, 7).fc(1000);
  const auto& layers = b.peek().layers;
  ASSERT_EQ(layers.size(), 3u);  // Data, MatMul, BiasAdd
  EXPECT_EQ(layers[1].type, LayerType::kMatMul);
  EXPECT_EQ(layers[1].matmul_k, 64 * 7 * 7);
  EXPECT_EQ(layers[1].output, (Shape4{8, 1000, 1, 1}));
  EXPECT_EQ(layers[2].type, LayerType::kBiasAdd);
}

TEST(GraphBuilder, FcWithoutBias) {
  GraphBuilder b("m", 1, true);
  b.input(16, 1, 1).fc(10, /*bias=*/false);
  EXPECT_EQ(b.peek().layers.size(), 2u);
}

TEST(GraphBuilder, BranchSaveRestore) {
  GraphBuilder b("m", 1, true);
  b.input(16, 14, 14);
  const Shape4 entry = b.shape();
  b.conv(32, 3);
  b.set_shape(entry);
  b.conv(64, 3);
  b.concat(96, 2);
  EXPECT_EQ(b.shape(), (Shape4{1, 96, 14, 14}));
}

TEST(GraphBuilder, AddNRecordsInputCount) {
  GraphBuilder b("m", 1, true);
  b.input(8, 4, 4).add_n(3);
  EXPECT_EQ(b.peek().layers.back().n_inputs, 3);
}

TEST(GraphBuilder, ResizeAndWhereShapes) {
  GraphBuilder b("m", 1, true);
  b.input(4, 10, 10).resize(20, 20);
  EXPECT_EQ(b.shape(), (Shape4{1, 4, 20, 20}));
  b.where();
  EXPECT_EQ(b.peek().layers.back().type, LayerType::kWhere);
}

TEST(GraphBuilder, LayerCountAccessor) {
  GraphBuilder b("m", 1, true);
  EXPECT_EQ(b.layer_count(), 0u);
  b.input(3, 8, 8).conv(4, 3).relu();
  EXPECT_EQ(b.layer_count(), 3u);
}

/// Every layer's name is "<prefix>[_<n>]/<Op>" for its type's ordinal n,
/// with one prefix per type, and its shape tag is its output shape's text.
/// A spliced-in sub-graph (Mask R-CNN's mask head) restarts the ordinals.
void expect_composed_names_and_tags(const Graph& g) {
  std::array<int, framework::kLayerTypeCount> counts{};
  std::array<std::string, framework::kLayerTypeCount> prefixes;
  for (const Layer& l : g.layers) {
    const auto t = static_cast<std::size_t>(l.type);
    const std::string op = std::string("/") + framework::layer_type_name(l.type);
    const std::string_view name = l.name.view();
    if (prefixes[t].empty()) {
      ASSERT_EQ(counts[t], 0) << g.model_name;
      ASSERT_GT(name.size(), op.size()) << g.model_name;
      ASSERT_EQ(name.substr(name.size() - op.size()), op) << g.model_name;
      prefixes[t] = std::string(name.substr(0, name.size() - op.size()));
    } else if (counts[t] > 0 && name == prefixes[t] + op) {
      counts = {};
    }
    const int n = counts[t]++;
    const std::string ordinal = n == 0 ? "" : "_" + std::to_string(n);
    EXPECT_EQ(name, prefixes[t] + ordinal + op) << g.model_name;
    EXPECT_EQ(l.shape_tag.view(), l.output.str()) << g.model_name << " " << name;
  }
}

TEST(GraphBuilder, ZooNamesAndShapeTagsMatchTheirText) {
  for (const bool tf : {true, false}) {
    for (const ModelInfo& info : tf ? tensorflow_models() : mxnet_models()) {
      for (const std::int64_t batch : {1, 256}) {
        const Graph first = info.build(batch, tf);
        const Graph second = info.build(batch, tf);
        expect_composed_names_and_tags(first);
        ASSERT_EQ(first.layers.size(), second.layers.size()) << info.name;
        for (std::size_t i = 0; i < first.layers.size(); ++i) {
          EXPECT_EQ(first.layers[i].name, second.layers[i].name) << info.name;
          EXPECT_EQ(first.layers[i].shape_tag, second.layers[i].shape_tag) << info.name;
        }
      }
    }
  }
}

TEST(GraphBuilder, ShapeTagsKeyOnAllFourDims) {
  // Thousands of shapes that differ in one dimension only: the cache
  // grows several times and its probe chains hold near-equal shapes.
  GraphBuilder b("dims", 1, true);
  b.input(3, 5, 7);
  for (std::int64_t v = 2; v < 2000; ++v) {
    b.reshape({v, 3, 5, 7}).reshape({1, v, 5, 7}).reshape({1, 3, v, 7}).reshape({1, 3, 5, v});
  }
  for (int round = 0; round < 2; ++round) {
    GraphBuilder copy = b;
    expect_composed_names_and_tags(std::move(copy).build());
  }
}

TEST(GraphBuilder, OverBudgetNamesAndTagsAreNotCached) {
  // A never-seen last name and a never-seen shape on every run, so a
  // repeated run meets them too.
  static int round = 0;
  ++round;
  const int transposes = 3000 + round;
  const std::int64_t channels = 900'000 + round;
  const auto build = [&] {
    GraphBuilder b("budget", 1, true);
    b.input(channels, 1, 1);
    for (int i = 0; i < transposes; ++i) b.transpose();
    return std::move(b).build();
  };

  common::StringTable& table = common::StringTable::global();
  const std::size_t budget = table.budget_bytes();
  table.set_budget_bytes(1);
  const Graph capped = build();
  table.set_budget_bytes(budget);
  const auto sentinel = common::StrId::from_raw(table.sentinel_id());
  EXPECT_EQ(capped.layers.back().name, sentinel);
  EXPECT_EQ(capped.layers.back().shape_tag, sentinel);

  // With the budget restored the same build interns both for real, so
  // neither cache kept the sentinel.
  const Graph real = build();
  EXPECT_EQ(real.layers.back().name,
            "transpose_" + std::to_string(transposes - 1) + "/Transpose");
  EXPECT_EQ(real.layers.back().shape_tag, (Shape4{1, channels, 1, 1}).str());
}

TEST(GraphBuilder, ThreadsBuildingOneModelGetIdenticalIds) {
  const ModelInfo* info = find_tensorflow_model("MLPerf_ResNet50_v1.5");
  ASSERT_NE(info, nullptr);
  std::array<Graph, 2> graphs;
  std::thread a([&] { graphs[0] = info->build(32, true); });
  std::thread b([&] { graphs[1] = info->build(32, true); });
  a.join();
  b.join();
  ASSERT_EQ(graphs[0].layers.size(), graphs[1].layers.size());
  for (std::size_t i = 0; i < graphs[0].layers.size(); ++i) {
    EXPECT_EQ(graphs[0].layers[i].name.raw(), graphs[1].layers[i].name.raw());
    EXPECT_EQ(graphs[0].layers[i].shape_tag.raw(), graphs[1].layers[i].shape_tag.raw());
  }
  expect_composed_names_and_tags(graphs[0]);
}

TEST(GraphBuilder, ModelNamePropagates) {
  GraphBuilder b("MyModel", 1, true);
  b.input(3, 8, 8);
  EXPECT_EQ(std::move(b).build().model_name, "MyModel");
}

}  // namespace
}  // namespace xsp::models
