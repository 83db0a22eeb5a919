// Host-side tracing for the benchmark: host-time spans recorded from the
// benchmark's own code around its calls into the library, plus a kernel
// log fed by MultiGpuSystem's kernel observer (simulated time).
//
// Spans are kept in memory and written out once, at exit. A span's self
// time is its duration minus the time its direct children cover; spans
// nest strictly because the benchmark is single-threaded.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "gpu/system.hpp"

namespace perfbench {

/// Host wall-clock now, in ns since an arbitrary process-local epoch.
std::int64_t wallNs();

/// CPU time this thread has consumed, in ns: the host clock every span
/// and host metric reads. The benchmark is single-threaded, so this is
/// its wall time minus the time the machine ran something else.
std::int64_t hostNs();

/// Host speed probe. On a shared host, other tenants slow cache-bound code
/// by up to half, in phases from a second to longer than a run, while a
/// register-only loop keeps its speed. The probe is a fixed cache-bound
/// workload owned by the benchmark (an ordered-map build of 65536
/// random keys), timed at most once per kSpeedSampleIntervalNs of wall
/// time between runs; its median against kReferenceSpeedMs says
/// how slow the machine ran while the workload was measured.
inline constexpr std::int64_t kSpeedSampleIntervalNs = 250'000'000;
inline constexpr double kReferenceSpeedMs = 20.0;
void sampleHostSpeed();
/// Median probe time, in ms (kReferenceSpeedMs before any).
double speedSampleMs();
/// kReferenceSpeedMs / speedSampleMs().
double hostSpeedFactor();

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;          ///< index into the span list, -1 = root
  std::int64_t batch = -1;  ///< batch/step id within its run, -1 = none
  std::int64_t child_ns = 0;
};

/// Totals of one span name over a trace.
struct SpanTotals {
  std::int64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void setEnabled(bool on) { enabled_ = on; }

  /// Opens a span under the innermost open one; -1 when disabled.
  int open(const char* name, std::int64_t batch = -1);
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }
  /// Totals per span name over spans [first, end).
  std::map<std::string, SpanTotals> totalsByName(std::size_t first = 0) const;

  /// Writes every span as a JSON array (one object per span).
  bool writeJson(const std::string& path, const std::string& header) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::int64_t batch = -1)
      : tracer_(tracer), index_(tracer.open(name, batch)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Layer a kernel belongs to, by kernel-name prefix.
enum class KernelLayer {
  kLookup,      ///< emb_lookup_*
  kUnpack,      ///< emb_unpack*
  kCache,       ///< emb_cache_*
  kHier,        ///< emb_hier_*
  kTopMlp,      ///< top_mlp (forward)
  kInteraction, ///< interaction
  kBottomMlp,   ///< bottom_mlp (forward)
  kBackward,    ///< emb_backward_*
  kMlpBackward, ///< *_mlp_bwd
  kOther,
  kCount
};
KernelLayer classifyKernel(const std::string& name);

/// Aggregates kernel completions of one simulated system: busy time per
/// layer, the PGAS fused kernel's exposed put tail, and per-GPU idle
/// time inside batch windows. Attach with attach(); detach before the
/// system is destroyed.
class KernelLog {
 public:
  void attach(pgasemb::gpu::MultiGpuSystem& system);
  void detach();

  /// Batch window in simulated host time; kernels completing in between
  /// are charged to it and idle time is the window minus each GPU's
  /// busy union, averaged over GPUs.
  void beginBatch(pgasemb::SimTime at);
  void endBatch(pgasemb::SimTime at);

  std::int64_t kernels() const { return kernels_; }
  double busyMs(KernelLayer layer) const {
    return busy_ms_[static_cast<std::size_t>(layer)];
  }
  double pgasTailMs() const { return pgas_tail_ms_; }
  std::int64_t pgasKernels() const { return pgas_kernels_; }
  double idleMs() const { return idle_ms_; }
  int gpus() const { return gpus_; }

 private:
  void record(int device, const std::string& name, pgasemb::SimTime start,
              pgasemb::SimTime end, pgasemb::SimTime completion);

  pgasemb::gpu::MultiGpuSystem* system_ = nullptr;
  int gpus_ = 0;
  std::int64_t kernels_ = 0;
  std::array<double, static_cast<std::size_t>(KernelLayer::kCount)>
      busy_ms_{};
  double pgas_tail_ms_ = 0.0;
  std::int64_t pgas_kernels_ = 0;
  double idle_ms_ = 0.0;
  pgasemb::SimTime window_start_;
  /// Compute intervals per GPU of the open batch window.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> busy_;
};

}  // namespace perfbench
