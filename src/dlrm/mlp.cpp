#include "dlrm/mlp.hpp"

#include <algorithm>

#include "util/expect.hpp"
#include "util/rng.hpp"

namespace pgasemb::dlrm {

Mlp::Mlp(const MlpConfig& config) : config_(config) {
  PGASEMB_CHECK(config.input_dim >= 1, "MLP needs positive input dim");
  PGASEMB_CHECK(!config.layer_dims.empty(), "MLP needs at least one layer");
  for (int d : config.layer_dims) {
    PGASEMB_CHECK(d >= 1, "MLP layer dims must be positive");
  }
}

namespace {

float proceduralMlpWeight(std::uint64_t seed, int layer, int i, int j) {
  const std::uint64_t h = splitmix64(
      seed ^ (static_cast<std::uint64_t>(layer) * 0x9e3779b9ULL +
              static_cast<std::uint64_t>(i) * 0x85ebca6bULL +
              static_cast<std::uint64_t>(j)));
  return static_cast<float>(static_cast<double>(h >> 40) * 0x1.0p-24 - 0.5);
}

}  // namespace

int Mlp::inputDim(int layer) const {
  PGASEMB_CHECK(layer >= 0 &&
                    layer < static_cast<int>(config_.layer_dims.size()),
                "bad layer ", layer);
  return layer == 0 ? config_.input_dim
                    : config_.layer_dims[static_cast<std::size_t>(layer - 1)];
}

float Mlp::weight(int layer, int i, int j) const {
  if (materialized_) {
    return dense_w_[static_cast<std::size_t>(layer)]
                   [static_cast<std::size_t>(i) *
                        static_cast<std::size_t>(inputDim(layer)) +
                    static_cast<std::size_t>(j)];
  }
  return proceduralMlpWeight(config_.seed, layer, i, j);
}

float Mlp::bias(int layer, int i) const {
  if (materialized_) {
    return dense_b_[static_cast<std::size_t>(layer)]
                   [static_cast<std::size_t>(i)];
  }
  return proceduralMlpWeight(config_.seed, layer, i, 1 << 20);
}

void Mlp::materialize() {
  if (materialized_) return;
  const int layers = static_cast<int>(config_.layer_dims.size());
  dense_w_.resize(static_cast<std::size_t>(layers));
  dense_b_.resize(static_cast<std::size_t>(layers));
  for (int l = 0; l < layers; ++l) {
    const int in = inputDim(l);
    const int out = config_.layer_dims[static_cast<std::size_t>(l)];
    auto& w = dense_w_[static_cast<std::size_t>(l)];
    auto& b = dense_b_[static_cast<std::size_t>(l)];
    w.resize(static_cast<std::size_t>(in) * out);
    b.resize(static_cast<std::size_t>(out));
    for (int i = 0; i < out; ++i) {
      b[static_cast<std::size_t>(i)] =
          proceduralMlpWeight(config_.seed, l, i, 1 << 20);
      for (int j = 0; j < in; ++j) {
        w[static_cast<std::size_t>(i) * in + j] =
            proceduralMlpWeight(config_.seed, l, i, j);
      }
    }
  }
  materialized_ = true;
}

std::vector<std::vector<float>> Mlp::forwardActivations(
    std::span<const float> input) const {
  PGASEMB_CHECK(static_cast<int>(input.size()) == config_.input_dim,
                "MLP input dim mismatch");
  std::vector<std::vector<float>> acts;
  acts.emplace_back(input.begin(), input.end());
  for (std::size_t layer = 0; layer < config_.layer_dims.size(); ++layer) {
    const int out_dim = config_.layer_dims[layer];
    const auto& cur = acts.back();
    std::vector<float> next(static_cast<std::size_t>(out_dim));
    const bool last = (layer + 1 == config_.layer_dims.size());
    for (int i = 0; i < out_dim; ++i) {
      float acc = bias(static_cast<int>(layer), i);
      for (std::size_t j = 0; j < cur.size(); ++j) {
        acc += weight(static_cast<int>(layer), i, static_cast<int>(j)) *
               cur[j];
      }
      next[static_cast<std::size_t>(i)] = last ? acc : std::max(0.0f, acc);
    }
    acts.push_back(std::move(next));
  }
  return acts;
}

void Mlp::Gradients::accumulate(const Gradients& other) {
  for (std::size_t l = 0; l < w.size(); ++l) {
    for (std::size_t k = 0; k < w[l].size(); ++k) w[l][k] += other.w[l][k];
    for (std::size_t k = 0; k < b[l].size(); ++k) b[l][k] += other.b[l][k];
  }
}

Mlp::Gradients Mlp::zeroGradients() const {
  Gradients g;
  const int layers = static_cast<int>(config_.layer_dims.size());
  g.w.resize(static_cast<std::size_t>(layers));
  g.b.resize(static_cast<std::size_t>(layers));
  for (int l = 0; l < layers; ++l) {
    g.w[static_cast<std::size_t>(l)].assign(
        static_cast<std::size_t>(inputDim(l)) *
            config_.layer_dims[static_cast<std::size_t>(l)],
        0.0f);
    g.b[static_cast<std::size_t>(l)].assign(
        static_cast<std::size_t>(
            config_.layer_dims[static_cast<std::size_t>(l)]),
        0.0f);
  }
  return g;
}

std::vector<float> Mlp::backward(
    const std::vector<std::vector<float>>& activations,
    std::span<const float> grad_output, Gradients& grads) const {
  const int layers = static_cast<int>(config_.layer_dims.size());
  PGASEMB_CHECK(static_cast<int>(activations.size()) == layers + 1,
                "activation count mismatch");
  std::vector<float> grad(grad_output.begin(), grad_output.end());
  for (int l = layers - 1; l >= 0; --l) {
    const auto& in_act = activations[static_cast<std::size_t>(l)];
    const auto& out_act = activations[static_cast<std::size_t>(l) + 1];
    const int out_dim = config_.layer_dims[static_cast<std::size_t>(l)];
    const int in_dim = inputDim(l);
    const bool last = (l == layers - 1);
    PGASEMB_CHECK(static_cast<int>(grad.size()) == out_dim,
                  "gradient dim mismatch at layer ", l);
    // ReLU mask on hidden layers: grad flows only where output > 0.
    std::vector<float> dz(static_cast<std::size_t>(out_dim));
    for (int i = 0; i < out_dim; ++i) {
      const float g = grad[static_cast<std::size_t>(i)];
      dz[static_cast<std::size_t>(i)] =
          (last || out_act[static_cast<std::size_t>(i)] > 0.0f) ? g : 0.0f;
    }
    auto& wg = grads.w[static_cast<std::size_t>(l)];
    auto& bg = grads.b[static_cast<std::size_t>(l)];
    std::vector<float> grad_in(static_cast<std::size_t>(in_dim), 0.0f);
    for (int i = 0; i < out_dim; ++i) {
      const float d = dz[static_cast<std::size_t>(i)];
      bg[static_cast<std::size_t>(i)] += d;
      for (int j = 0; j < in_dim; ++j) {
        wg[static_cast<std::size_t>(i) * in_dim + j] +=
            d * in_act[static_cast<std::size_t>(j)];
        grad_in[static_cast<std::size_t>(j)] += d * weight(l, i, j);
      }
    }
    grad = std::move(grad_in);
  }
  return grad;
}

void Mlp::applySgd(const Gradients& grads, float lr) {
  PGASEMB_CHECK(materialized_, "applySgd requires materialize()");
  for (std::size_t l = 0; l < dense_w_.size(); ++l) {
    for (std::size_t k = 0; k < dense_w_[l].size(); ++k) {
      dense_w_[l][k] -= lr * grads.w[l][k];
    }
    for (std::size_t k = 0; k < dense_b_[l].size(); ++k) {
      dense_b_[l][k] -= lr * grads.b[l][k];
    }
  }
}

std::vector<float> Mlp::forward(std::span<const float> input) const {
  PGASEMB_CHECK(static_cast<int>(input.size()) == config_.input_dim,
                "MLP input dim mismatch: got ", input.size(), " expected ",
                config_.input_dim);
  std::vector<float> cur(input.begin(), input.end());
  for (std::size_t layer = 0; layer < config_.layer_dims.size(); ++layer) {
    const int out_dim = config_.layer_dims[layer];
    std::vector<float> next(static_cast<std::size_t>(out_dim));
    const bool last = (layer + 1 == config_.layer_dims.size());
    for (int i = 0; i < out_dim; ++i) {
      float acc = bias(static_cast<int>(layer), i);
      for (std::size_t j = 0; j < cur.size(); ++j) {
        acc += weight(static_cast<int>(layer), i, static_cast<int>(j)) *
               cur[j];
      }
      next[static_cast<std::size_t>(i)] =
          last ? acc : std::max(0.0f, acc);  // ReLU on hidden layers
    }
    cur = std::move(next);
  }
  return cur;
}

double Mlp::forwardFlops(std::int64_t batch) const {
  double flops = 0.0;
  int in = config_.input_dim;
  for (int out : config_.layer_dims) {
    flops += 2.0 * static_cast<double>(batch) * in * out;
    in = out;
  }
  return flops;
}

std::int64_t Mlp::parameterBytes() const {
  std::int64_t bytes = 0;
  int in = config_.input_dim;
  for (int out : config_.layer_dims) {
    bytes += 4LL * (in * out + out);
    in = out;
  }
  return bytes;
}

double Mlp::forwardBytes(std::int64_t batch) const {
  double bytes = 0.0;
  int in = config_.input_dim;
  for (int out : config_.layer_dims) {
    bytes += 4.0 * (static_cast<double>(in) * out +        // weights
                    static_cast<double>(batch) * (in + out));  // activations
    in = out;
  }
  return bytes;
}

gpu::KernelDesc Mlp::buildForwardKernel(const gpu::MultiGpuSystem& system,
                                        std::int64_t batch,
                                        const std::string& name) const {
  const auto& cm = system.costModel();
  gpu::KernelDesc desc;
  // Pure-compute GEMM cost model; callers pass "mlp_*" names from the
  // pure allowlist. pgaslint:allow(kernel-mem-effects)
  desc.name = name;
  const double flops = forwardFlops(batch);
  const double bytes = forwardBytes(batch);
  // GEMMs stream their operands; no gather degradation.
  const double compute_s = flops / (cm.peak_flops * 0.75);  // GEMM eff.
  const double memory_s = bytes / (cm.hbm_bandwidth * cm.stream_efficiency);
  desc.duration = std::max(SimTime::sec(std::max(compute_s, memory_s)),
                           cm.kernel_latency_floor);
  return desc;
}

}  // namespace pgasemb::dlrm
