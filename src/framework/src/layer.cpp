#include "xsp/framework/layer.hpp"

#include "xsp/common/format.hpp"

namespace xsp::framework {

const char* layer_type_name(LayerType t) {
  switch (t) {
    case LayerType::kData: return "Data";
    case LayerType::kConv2D: return "Conv2D";
    case LayerType::kDepthwiseConv2D: return "DepthwiseConv2dNative";
    case LayerType::kFusedBatchNorm: return "FusedBatchNorm";
    case LayerType::kMul: return "Mul";
    case LayerType::kAdd: return "Add";
    case LayerType::kAddN: return "AddN";
    case LayerType::kRelu: return "Relu";
    case LayerType::kSigmoid: return "Sigmoid";
    case LayerType::kTanh: return "Tanh";
    case LayerType::kMatMul: return "MatMul";
    case LayerType::kBiasAdd: return "BiasAdd";
    case LayerType::kSoftmax: return "Softmax";
    case LayerType::kMaxPool: return "MaxPool";
    case LayerType::kAvgPool: return "AvgPool";
    case LayerType::kPad: return "Pad";
    case LayerType::kConcat: return "ConcatV2";
    case LayerType::kTranspose: return "Transpose";
    case LayerType::kWhere: return "Where";
    case LayerType::kResize: return "ResizeBilinear";
    case LayerType::kReduce: return "Reduce";
    case LayerType::kReshape: return "Reshape";
  }
  return "?";
}

common::StrId layer_type_id(LayerType t) {
  static common::LazyStrIds<kLayerTypeCount> ids;
  return ids.get(static_cast<std::size_t>(t), [t] { return layer_type_name(t); });
}

common::StrId shape_tag_id(const dnn::Shape4& shape) {
  DimsText buf;
  return format_dims(buf, {shape.n, shape.c, shape.h, shape.w}, '<', ", ", '>');
}

}  // namespace xsp::framework
