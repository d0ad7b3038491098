#include "impute/rate_imputer.h"

#include <algorithm>
#include <numeric>

#include "nn/losses.h"
#include "nn/optim.h"
#include "tensor/ops.h"
#include "util/check.h"

namespace fmnet::impute {

using tensor::Tensor;

PhysicsRateImputer::PhysicsRateImputer(RateImputerConfig config)
    : config_(config), rng_(config.seed) {
  FMNET_CHECK_EQ(config_.model.input_channels,
                 static_cast<std::int64_t>(telemetry::kNumInputChannels));
  FMNET_CHECK_GT(config_.max_step_delta, 0.0f);
  rate_net_ =
      std::make_unique<nn::ImputationTransformer>(config_.model, rng_);
  // Inference state from the start, as train() leaves it: impute() never
  // switches modes, so concurrent calls write no shared state.
  rate_net_->set_training(false);
}

Tensor PhysicsRateImputer::derive_queues(const Tensor& x,
                                         const std::vector<float>& q0) const {
  const std::int64_t b = x.dim(0);
  const std::int64_t t_len = x.dim(1);
  FMNET_CHECK_EQ(static_cast<std::int64_t>(q0.size()), b);

  fmnet::Rng unused(0);
  // Net inflow per step, bounded by the physical rate limit.
  const Tensor rates = tensor::mul_scalar(
      tensor::tanh(rate_net_->forward(x, unused)),
      config_.max_step_delta);  // [B, T]

  Tensor q = Tensor::from_vector(q0, {b, 1});
  std::vector<Tensor> steps;
  steps.reserve(static_cast<std::size_t>(t_len));
  steps.push_back(q);  // q[0] is the (known) sampled initial state
  for (std::int64_t t = 0; t + 1 < t_len; ++t) {
    const Tensor net_t = tensor::slice(rates, 1, t, t + 1);  // [B, 1]
    q = tensor::relu(q + net_t);
    steps.push_back(q);
  }
  return tensor::reshape(tensor::cat(steps, 1), {b, t_len});
}

void PhysicsRateImputer::train(
    const std::vector<ImputationExample>& examples) {
  FMNET_CHECK(!examples.empty(), "empty training set");
  rate_net_->set_training(true);
  nn::Adam opt(rate_net_->parameters(), config_.lr);
  const std::size_t n = examples.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    for (std::size_t i = n; i-- > 1;) {
      std::swap(order[i],
                order[rng_.uniform_int(0, static_cast<std::int64_t>(i))]);
    }
    for (std::size_t begin = 0; begin < n;
         begin += static_cast<std::size_t>(config_.batch_size)) {
      const std::size_t end =
          std::min(n, begin + static_cast<std::size_t>(config_.batch_size));
      const auto bsz = static_cast<std::int64_t>(end - begin);
      const auto t_len =
          static_cast<std::int64_t>(examples[order[begin]].window);
      const auto c =
          static_cast<std::int64_t>(telemetry::kNumInputChannels);
      std::vector<float> xdata;
      std::vector<float> ydata;
      std::vector<float> q0;
      for (std::size_t i = begin; i < end; ++i) {
        const auto& ex = examples[order[i]];
        xdata.insert(xdata.end(), ex.features.begin(), ex.features.end());
        ydata.insert(ydata.end(), ex.target.begin(), ex.target.end());
        q0.push_back(ex.constraints.sample_val.empty()
                         ? 0.0f
                         : ex.constraints.sample_val.front());
      }
      const Tensor x =
          Tensor::from_vector(std::move(xdata), {bsz, t_len, c});
      const Tensor y = Tensor::from_vector(std::move(ydata), {bsz, t_len});

      rate_net_->zero_grad();
      Tensor loss = nn::emd_loss(derive_queues(x, q0), y);
      loss.backward();
      opt.clip_grad_norm(config_.grad_clip);
      opt.step();
    }
  }
  rate_net_->set_training(false);
}

std::vector<double> PhysicsRateImputer::impute(const ImputationExample& ex) {
  const auto t = static_cast<std::int64_t>(ex.window);
  const Tensor x = Tensor::from_vector(
      ex.features,
      {1, t, static_cast<std::int64_t>(telemetry::kNumInputChannels)});
  const std::vector<float> q0{ex.constraints.sample_val.empty()
                                  ? 0.0f
                                  : ex.constraints.sample_val.front()};
  const Tensor q = derive_queues(x, q0);
  std::vector<double> out(ex.window);
  for (std::size_t i = 0; i < ex.window; ++i) {
    out[i] = std::max(
        0.0, static_cast<double>(q.data()[i]) * ex.qlen_scale);
  }
  return out;
}

}  // namespace fmnet::impute
