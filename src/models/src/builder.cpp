#include "xsp/models/builder.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <utility>
#include <vector>

namespace xsp::models {

namespace {

/// TensorFlow-style op-scope naming: first instance "conv2d", later ones
/// "conv2d_1", "conv2d_2", ... with the op name appended ("conv2d/Conv2D").
std::string_view scope_prefix(LayerType type) {
  switch (type) {
    case LayerType::kConv2D: return "conv2d";
    case LayerType::kDepthwiseConv2D: return "depthwise_conv2d";
    case LayerType::kFusedBatchNorm: return "batch_normalization";
    case LayerType::kMul: return "batchnorm/mul";
    case LayerType::kAdd: return "batchnorm/add";
    case LayerType::kAddN: return "add_n";
    case LayerType::kRelu: return "activation";
    case LayerType::kSigmoid: return "sigmoid";
    case LayerType::kTanh: return "tanh";
    case LayerType::kMatMul: return "dense";
    case LayerType::kBiasAdd: return "bias";
    case LayerType::kSoftmax: return "softmax";
    case LayerType::kMaxPool: return "max_pooling2d";
    case LayerType::kAvgPool: return "average_pooling2d";
    case LayerType::kPad: return "pad";
    case LayerType::kConcat: return "concat";
    case LayerType::kTranspose: return "transpose";
    case LayerType::kWhere: return "postprocessor/where";
    case LayerType::kResize: return "resize";
    case LayerType::kReduce: return "reduce";
    case LayerType::kReshape: return "reshape";
    case LayerType::kData: return "data";
  }
  return "op";
}

/// Layer-name ids by (type, ordinal). A name depends on nothing else, so
/// each is composed and interned once per thread, not once per layer of
/// every graph. Ids are process-global, so the cache needs no lock.
class NameIds {
 public:
  [[nodiscard]] common::StrId get(LayerType type, int n) {
    std::vector<std::uint32_t>& ids = ids_[static_cast<std::size_t>(type)];
    const auto slot = static_cast<std::size_t>(n);
    if (slot < ids.size() && ids[slot] != 0) return common::StrId::from_raw(ids[slot]);
    common::StringTable& table = common::StringTable::global();
    std::array<char, 128> buf;
    const std::uint32_t id = table.intern(compose(buf, type, n));
    // An over-budget sentinel is not kept: a later build retries.
    if (id != table.sentinel_id()) {
      if (slot >= ids.size()) ids.resize(slot + 1);
      ids[slot] = id;
    }
    return common::StrId::from_raw(id);
  }

 private:
  /// "<prefix>[_<n>]/<type name>", composed in a stack buffer.
  static std::string_view compose(std::array<char, 128>& buf, LayerType type, int n) {
    const std::string_view prefix = scope_prefix(type);
    const std::string_view op = framework::layer_type_name(type);
    char* p = std::copy(prefix.begin(), prefix.end(), buf.data());
    if (n != 0) {
      *p++ = '_';
      p = std::to_chars(p, buf.data() + buf.size(), n).ptr;
    }
    *p++ = '/';
    p = std::copy(op.begin(), op.end(), p);
    return {buf.data(), static_cast<std::size_t>(p - buf.data())};
  }

  std::array<std::vector<std::uint32_t>, framework::kLayerTypeCount> ids_;
};

/// Shape-tag ids by Shape4 value: an open-addressed table with linear
/// probing, so a shape is formatted and interned once per thread. A pass
/// over the zoo sees a few thousand distinct shapes. Slot id 0 marks an
/// empty slot; a shape tag is never the empty string.
class ShapeTagIds {
 public:
  [[nodiscard]] common::StrId get(const Shape4& shape) {
    if (slots_.empty()) slots_.resize(kInitialSlots);
    Slot& slot = find(slots_, shape);
    if (slot.id != 0) return common::StrId::from_raw(slot.id);
    const common::StrId tag = framework::shape_tag_id(shape);
    // An over-budget sentinel is not kept: a later build retries.
    if (tag.raw() == common::StringTable::global().sentinel_id()) return tag;
    slot = {shape, tag.raw()};
    if (++used_ * 4 > slots_.size() * 3) {
      std::vector<Slot> old(slots_.size() * 2);
      old.swap(slots_);
      for (const Slot& s : old) {
        if (s.id != 0) find(slots_, s.shape) = s;
      }
    }
    return tag;
  }

 private:
  struct Slot {
    Shape4 shape;
    std::uint32_t id = 0;
  };
  static constexpr std::size_t kInitialSlots = 1024;  // power of two

  /// The slot holding `shape`, or the empty slot where it belongs.
  static Slot& find(std::vector<Slot>& slots, const Shape4& shape) {
    std::uint64_t h = static_cast<std::uint64_t>(shape.n);
    for (const std::int64_t v : {shape.c, shape.h, shape.w}) {
      h = (h ^ static_cast<std::uint64_t>(v)) * 0x9E3779B97F4A7C15ull;
    }
    const std::size_t mask = slots.size() - 1;
    std::size_t i = static_cast<std::size_t>(h ^ (h >> 32)) & mask;
    while (slots[i].id != 0 && !(slots[i].shape == shape)) i = (i + 1) & mask;
    return slots[i];
  }

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
};

thread_local NameIds t_name_ids;
thread_local ShapeTagIds t_shape_tag_ids;

}  // namespace

GraphBuilder::GraphBuilder(std::string model_name, std::int64_t batch, bool decompose_batchnorm)
    : decompose_batchnorm_(decompose_batchnorm) {
  graph_.model_name = std::move(model_name);
  cur_ = {batch, 1, 1, 1};
}

common::StrId GraphBuilder::next_name(LayerType type) {
  return t_name_ids.get(type, type_counts_[static_cast<std::size_t>(type)]++);
}

Layer& GraphBuilder::append(LayerType type, const Shape4& output) {
  Layer l;
  l.type = type;
  l.name = next_name(type);
  l.input = cur_;
  l.output = output;
  cur_ = output;
  graph_.layers.push_back(std::move(l));
  return graph_.layers.back();
}

Graph GraphBuilder::build() && {
  ShapeTagIds& tags = t_shape_tag_ids;
  for (Layer& l : graph_.layers) l.shape_tag = tags.get(l.output);
  return std::move(graph_);
}

GraphBuilder& GraphBuilder::input(std::int64_t channels, std::int64_t h, std::int64_t w) {
  const Shape4 out{cur_.n, channels, h, w};
  Layer& l = append(LayerType::kData, out);
  l.name = t_name_ids.get(LayerType::kData, 0);  // "data/Data" at any ordinal
  return *this;
}

GraphBuilder& GraphBuilder::conv(std::int64_t out_channels, std::int64_t kernel,
                                 std::int64_t stride, std::int64_t pad) {
  if (pad < 0) pad = kernel / 2;
  const std::int64_t oh = (cur_.h + 2 * pad - kernel) / stride + 1;
  const std::int64_t ow = (cur_.w + 2 * pad - kernel) / stride + 1;
  const Shape4 out{cur_.n, out_channels, oh, ow};
  const double params =
      static_cast<double>(out_channels * cur_.c * kernel * kernel) * dnn::kElementBytes;
  Layer& l = append(LayerType::kConv2D, out);
  l.kernel_hw = kernel;
  l.stride = stride;
  l.pad = pad;
  l.param_bytes = params;
  return *this;
}

GraphBuilder& GraphBuilder::conv_rect(std::int64_t out_channels, std::int64_t kernel_h,
                                      std::int64_t kernel_w, std::int64_t stride) {
  const std::int64_t pad_h = kernel_h / 2;
  const std::int64_t pad_w = kernel_w / 2;
  const std::int64_t oh = (cur_.h + 2 * pad_h - kernel_h) / stride + 1;
  const std::int64_t ow = (cur_.w + 2 * pad_w - kernel_w) / stride + 1;
  const Shape4 out{cur_.n, out_channels, oh, ow};
  const double params =
      static_cast<double>(out_channels * cur_.c * kernel_h * kernel_w) * dnn::kElementBytes;
  Layer& l = append(LayerType::kConv2D, out);
  l.kernel_hw = kernel_h;
  l.kernel_w2 = kernel_w;
  l.stride = stride;
  l.pad = pad_h;
  l.pad_w2 = pad_w;
  l.param_bytes = params;
  return *this;
}

GraphBuilder& GraphBuilder::depthwise(std::int64_t kernel, std::int64_t stride,
                                      std::int64_t pad) {
  if (pad < 0) pad = kernel / 2;
  const std::int64_t oh = (cur_.h + 2 * pad - kernel) / stride + 1;
  const std::int64_t ow = (cur_.w + 2 * pad - kernel) / stride + 1;
  const Shape4 out{cur_.n, cur_.c, oh, ow};
  Layer& l = append(LayerType::kDepthwiseConv2D, out);
  l.kernel_hw = kernel;
  l.stride = stride;
  l.pad = pad;
  l.param_bytes = static_cast<double>(cur_.c * kernel * kernel) * dnn::kElementBytes;
  return *this;
}

GraphBuilder& GraphBuilder::batch_norm() {
  const double param_bytes = static_cast<double>(cur_.c) * 4 * dnn::kElementBytes;
  if (decompose_batchnorm_) {
    // TF runtime lowering: scale then shift as separate layers.
    Layer& mul = append(LayerType::kMul, cur_);
    mul.n_inputs = 1;  // one dense operand + broadcast scalar vector
    mul.param_bytes = param_bytes / 2;
    Layer& add = append(LayerType::kAdd, cur_);
    add.n_inputs = 1;
    add.param_bytes = param_bytes / 2;
  } else {
    Layer& bn = append(LayerType::kFusedBatchNorm, cur_);
    bn.param_bytes = param_bytes;
  }
  return *this;
}

GraphBuilder& GraphBuilder::relu() {
  append(LayerType::kRelu, cur_);
  return *this;
}

GraphBuilder& GraphBuilder::sigmoid() {
  append(LayerType::kSigmoid, cur_);
  return *this;
}

GraphBuilder& GraphBuilder::tanh() {
  append(LayerType::kTanh, cur_);
  return *this;
}

GraphBuilder& GraphBuilder::bias() {
  Layer& l = append(LayerType::kBiasAdd, cur_);
  l.param_bytes = static_cast<double>(cur_.c) * dnn::kElementBytes;
  return *this;
}

GraphBuilder& GraphBuilder::add() {
  Layer& l = append(LayerType::kAdd, cur_);
  l.n_inputs = 2;
  return *this;
}

GraphBuilder& GraphBuilder::add_n(int n_inputs) {
  Layer& l = append(LayerType::kAddN, cur_);
  l.n_inputs = n_inputs;
  return *this;
}

GraphBuilder& GraphBuilder::max_pool(std::int64_t window, std::int64_t stride) {
  const std::int64_t oh = std::max<std::int64_t>(1, (cur_.h - window) / stride + 1);
  const std::int64_t ow = std::max<std::int64_t>(1, (cur_.w - window) / stride + 1);
  Layer& l = append(LayerType::kMaxPool, {cur_.n, cur_.c, oh, ow});
  l.kernel_hw = window;
  l.stride = stride;
  return *this;
}

GraphBuilder& GraphBuilder::avg_pool(std::int64_t window, std::int64_t stride) {
  const std::int64_t oh = std::max<std::int64_t>(1, (cur_.h - window) / stride + 1);
  const std::int64_t ow = std::max<std::int64_t>(1, (cur_.w - window) / stride + 1);
  Layer& l = append(LayerType::kAvgPool, {cur_.n, cur_.c, oh, ow});
  l.kernel_hw = window;
  l.stride = stride;
  return *this;
}

GraphBuilder& GraphBuilder::global_avg_pool() {
  Layer& l = append(LayerType::kAvgPool, {cur_.n, cur_.c, 1, 1});
  l.kernel_hw = cur_.h;
  l.stride = 1;
  return *this;
}

GraphBuilder& GraphBuilder::fc(std::int64_t units, bool bias) {
  const std::int64_t k = cur_.c * cur_.h * cur_.w;
  Layer& l = append(LayerType::kMatMul, {cur_.n, units, 1, 1});
  l.matmul_k = k;
  l.param_bytes = static_cast<double>(k * units) * dnn::kElementBytes;
  if (bias) {
    Layer& b = append(LayerType::kBiasAdd, cur_);
    b.param_bytes = static_cast<double>(units) * dnn::kElementBytes;
  }
  return *this;
}

GraphBuilder& GraphBuilder::softmax() {
  append(LayerType::kSoftmax, cur_);
  return *this;
}

GraphBuilder& GraphBuilder::pad_layer(std::int64_t pad) {
  append(LayerType::kPad, {cur_.n, cur_.c, cur_.h + 2 * pad, cur_.w + 2 * pad});
  return *this;
}

GraphBuilder& GraphBuilder::concat(std::int64_t total_channels, int n_inputs) {
  Layer& l = append(LayerType::kConcat, {cur_.n, total_channels, cur_.h, cur_.w});
  l.n_inputs = n_inputs;
  return *this;
}

GraphBuilder& GraphBuilder::transpose() {
  append(LayerType::kTranspose, cur_);
  return *this;
}

GraphBuilder& GraphBuilder::where() {
  append(LayerType::kWhere, cur_);
  return *this;
}

GraphBuilder& GraphBuilder::resize(std::int64_t h, std::int64_t w) {
  append(LayerType::kResize, {cur_.n, cur_.c, h, w});
  return *this;
}

GraphBuilder& GraphBuilder::reduce() {
  append(LayerType::kReduce, {cur_.n, cur_.c, 1, 1});
  return *this;
}

GraphBuilder& GraphBuilder::reshape(const Shape4& new_shape) {
  append(LayerType::kReshape, new_shape);
  return *this;
}

}  // namespace xsp::models
