// Full DLRM model (paper Fig 1): dense features -> top MLP; sparse
// features -> EMB layer (via an EmbeddingRetriever); both fused by the
// interaction layer; bottom MLP + sigmoid produce the click probability.
//
// (The paper names the dense-side MLP "top" and the post-interaction MLP
// "bottom"; we keep that naming.)
#pragma once

#include <memory>

#include "dlrm/interaction.hpp"
#include "dlrm/mlp.hpp"
#include "emb/layer.hpp"

namespace pgasemb::dlrm {

struct DlrmConfig {
  int dense_dim = 13;  ///< facebookresearch/dlrm Criteo default
  /// Dense-path MLP; its last layer must equal the embedding dim so the
  /// dot-product interaction is well-formed.
  std::vector<int> top_mlp = {64, 32};
  /// Post-interaction MLP; last layer is the single logit.
  std::vector<int> bottom_mlp = {64, 16, 1};
  InteractionKind interaction = InteractionKind::kDotProduct;
  std::uint64_t seed = 0xd1;
};

class DlrmModel {
 public:
  DlrmModel(const DlrmConfig& config, emb::ShardedEmbeddingLayer& layer);

  const DlrmConfig& config() const { return config_; }
  emb::ShardedEmbeddingLayer& embLayer() { return layer_; }
  Mlp& topMlp() { return top_; }
  const Mlp& topMlp() const { return top_; }
  Mlp& bottomMlp() { return bottom_; }
  const Mlp& bottomMlp() const { return bottom_; }
  const InteractionLayer& interaction() const { return interaction_; }

  /// Functional prediction for one sample given its dense input and its
  /// EMB-layer output slice ([table][col]).
  float predict(std::span<const float> dense_input,
                std::span<const float> sparse_embeddings) const;

 private:
  DlrmConfig config_;
  emb::ShardedEmbeddingLayer& layer_;
  Mlp top_;
  Mlp bottom_;
  InteractionLayer interaction_;
};

/// Dense-feature batch (full batch on the host, mini-batched per GPU).
struct DenseBatch {
  std::int64_t batch_size = 0;
  int dense_dim = 0;
  std::vector<float> values;  ///< [sample][feature]

  static DenseBatch generateUniform(std::int64_t batch_size, int dense_dim,
                                    Rng& rng);
  std::span<const float> sample(std::int64_t b) const;
};

}  // namespace pgasemb::dlrm
