// Dense multilayer perceptron for the DLRM's dense-feature path
// (paper Fig 1: "top MLP" feeds on dense inputs, "bottom MLP" consumes
// the interaction output — the paper's naming, which we follow).
//
// Weights are procedural (hash of (layer, i, j)) so the functional path
// is deterministic without storing large dense matrices; the timing path
// uses a GEMM roofline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpu/kernel.hpp"
#include "gpu/system.hpp"

namespace pgasemb::dlrm {

struct MlpConfig {
  int input_dim = 16;
  std::vector<int> layer_dims = {64, 32};  ///< hidden + output sizes
  std::uint64_t seed = 0x111;
};

class Mlp {
 public:
  explicit Mlp(const MlpConfig& config);

  const MlpConfig& config() const { return config_; }
  int outputDim() const { return config_.layer_dims.back(); }

  /// Weight of (layer, out unit i, in unit j) in [-0.5, 0.5).
  float weight(int layer, int i, int j) const;
  /// Bias of (layer, out unit i).
  float bias(int layer, int i) const;

  /// Functional forward for one input vector (ReLU between layers,
  /// linear final layer).
  std::vector<float> forward(std::span<const float> input) const;

  // --- Training support -----------------------------------------------------

  /// Copy the procedural weights into mutable dense storage so SGD can
  /// update them. Idempotent.
  void materialize();
  bool materialized() const { return materialized_; }

  /// Per-layer activations of one forward pass: activations[0] is the
  /// input, activations[l + 1] is layer l's (post-ReLU) output.
  std::vector<std::vector<float>> forwardActivations(
      std::span<const float> input) const;

  /// Weight/bias gradients of one MLP, layer-major.
  struct Gradients {
    /// w[l][i * in_dim(l) + j] — same indexing as weight(l, i, j).
    std::vector<std::vector<float>> w;
    /// b[l][i].
    std::vector<std::vector<float>> b;

    void accumulate(const Gradients& other);
  };
  Gradients zeroGradients() const;

  /// Backprop one sample: given the activations from forwardActivations
  /// and dL/d(output), accumulates weight/bias grads into `grads` and
  /// returns dL/d(input).
  std::vector<float> backward(
      const std::vector<std::vector<float>>& activations,
      std::span<const float> grad_output, Gradients& grads) const;

  /// SGD step over the materialized weights.
  void applySgd(const Gradients& grads, float lr);

  int inputDim(int layer) const;

  /// Bytes of every fp32 weight and bias: what a data-parallel gradient
  /// all-reduce sums.
  std::int64_t parameterBytes() const;

  /// fp32 FLOPs for a forward pass over `batch` samples.
  double forwardFlops(std::int64_t batch) const;
  /// Bytes touched (weights once + activations per sample).
  double forwardBytes(std::int64_t batch) const;

  /// Kernel descriptor for a batched forward on `system`'s cost model.
  gpu::KernelDesc buildForwardKernel(const gpu::MultiGpuSystem& system,
                                     std::int64_t batch,
                                     const std::string& name) const;

 private:
  MlpConfig config_;
  bool materialized_ = false;
  std::vector<std::vector<float>> dense_w_;  // per layer, [i * in + j]
  std::vector<std::vector<float>> dense_b_;  // per layer, [i]
};

}  // namespace pgasemb::dlrm
