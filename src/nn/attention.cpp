#include "nn/attention.h"

#include <cmath>

#include "tensor/ops.h"
#include "util/check.h"

namespace fmnet::nn {

using namespace fmnet::tensor;  // NOLINT: op vocabulary

MultiHeadSelfAttention::MultiHeadSelfAttention(std::int64_t d_model,
                                               std::int64_t num_heads,
                                               fmnet::Rng& rng)
    : d_model_(d_model),
      num_heads_(num_heads),
      head_dim_(d_model / num_heads),
      wq_(d_model, d_model, rng),
      wk_(d_model, d_model, rng),
      wv_(d_model, d_model, rng),
      wo_(d_model, d_model, rng) {
  FMNET_CHECK_GT(num_heads, 0);
  FMNET_CHECK_EQ(d_model % num_heads, 0);
}

namespace {
// [B, T, D] -> [B*H, T, Dh]: split heads and fold them into the batch so
// 3-D batched matmul covers the 4-D attention computation.
Tensor split_heads(const Tensor& x, std::int64_t heads, std::int64_t hd) {
  const std::int64_t b = x.dim(0);
  const std::int64_t t = x.dim(1);
  const Tensor r = reshape(x, {b, t, heads, hd});
  const Tensor p = transpose(r, 1, 2);  // [B, H, T, Dh]
  return reshape(p, {b * heads, t, hd});
}

// [B*H, T, Dh] -> [B, T, D]
Tensor merge_heads(const Tensor& x, std::int64_t b, std::int64_t heads,
                   std::int64_t hd) {
  const std::int64_t t = x.dim(1);
  const Tensor r = reshape(x, {b, heads, t, hd});
  const Tensor p = transpose(r, 1, 2);  // [B, T, H, Dh]
  return reshape(p, {b, t, heads * hd});
}
}  // namespace

Tensor MultiHeadSelfAttention::forward(const Tensor& x) const {
  FMNET_CHECK_EQ(x.ndim(), 3u);
  FMNET_CHECK_EQ(x.dim(2), d_model_);
  const std::int64_t b = x.dim(0);

  const Tensor q = split_heads(wq_.forward(x), num_heads_, head_dim_);
  const Tensor k = split_heads(wk_.forward(x), num_heads_, head_dim_);
  const Tensor v = split_heads(wv_.forward(x), num_heads_, head_dim_);

  const float inv_sqrt_d =
      1.0f / std::sqrt(static_cast<float>(head_dim_));
  // Scores, softmax and the value product fused into one node; the [T, T]
  // score matrix never materialises as graph state.
  const Tensor ctx = attention(q, k, v, inv_sqrt_d);  // [BH, T, Dh]
  return wo_.forward(merge_heads(ctx, b, num_heads_, head_dim_));
}

std::vector<Tensor> MultiHeadSelfAttention::parameters() const {
  std::vector<Tensor> ps;
  for (const auto* lin : {&wq_, &wk_, &wv_, &wo_}) {
    for (Tensor p : lin->parameters()) ps.push_back(std::move(p));
  }
  return ps;
}

}  // namespace fmnet::nn
