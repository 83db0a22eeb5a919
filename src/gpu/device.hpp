// Simulated GPU device: memory capacity accounting, optional functional
// backing storage, and the per-device compute resource kernels serialize
// on.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/fifo_resource.hpp"
#include "util/expect.hpp"
#include "util/time.hpp"

namespace pgasemb::simsan {
class Checker;
class StrictEffects;
}

namespace pgasemb::gpu {

/// How kernels execute on this system.
///
/// `kFunctional` runs the real data-plane arithmetic into real buffers so
/// outputs can be checked bit-for-bit; `kTimingOnly` runs the identical
/// timing/cost path but skips per-element work and backing storage so
/// paper-scale configurations (tens of GB of simulated embedding tables)
/// fit on the host.
enum class ExecutionMode { kFunctional, kTimingOnly };

class Device;

/// A device-memory allocation measured in fp32 elements.
///
/// In functional mode the buffer is backed by host storage owned by the
/// device; in timing-only mode only the address range exists (capacity is
/// still charged, so simulated OOM behaves identically in both modes).
class DeviceBuffer {
 public:
  DeviceBuffer() = default;

  bool valid() const { return device_ != nullptr; }
  Device* device() const { return device_; }
  std::int64_t offset() const { return offset_; }
  std::int64_t size() const { return size_; }
  std::int64_t sizeBytes() const { return size_ * 4; }
  bool backed() const { return backed_; }

  /// Mutable view of the backing storage. Functional mode only.
  std::span<float> span();
  std::span<const float> span() const;

 private:
  friend class Device;
  DeviceBuffer(Device* device, std::int64_t offset, std::int64_t size,
               bool backed)
      : device_(device), offset_(offset), size_(size), backed_(backed) {}

  Device* device_ = nullptr;
  std::int64_t offset_ = 0;
  std::int64_t size_ = 0;
  bool backed_ = false;
};

class Device {
 public:
  Device(int id, std::int64_t memory_capacity_bytes, ExecutionMode mode,
         simsan::Checker* sanitizer = nullptr,
         simsan::StrictEffects* strict_effects = nullptr);

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  int id() const { return id_; }
  ExecutionMode mode() const { return mode_; }
  std::int64_t memoryCapacityBytes() const { return capacity_bytes_; }
  std::int64_t memoryUsedBytes() const { return used_bytes_; }
  std::int64_t memoryFreeBytes() const { return capacity_bytes_ - used_bytes_; }

  /// Allocate `n` fp32 elements; throws OutOfMemoryError past capacity.
  DeviceBuffer alloc(std::int64_t n);

  /// Allocate address space and charge capacity but never create backing
  /// storage, even in functional mode.  Used for paper-scale embedding
  /// tables with procedural contents.
  DeviceBuffer allocVirtual(std::int64_t n);

  /// Release a buffer: capacity is uncharged and the address range goes
  /// onto a coalescing free list, so later allocations reuse it
  /// (first-fit). Freeing the high-water allocation shrinks the address
  /// space (and any backing storage) back past every free block that
  /// touches the end.
  void free(DeviceBuffer& buffer);

  /// Address-space high-water mark in elements (tests/diagnostics).
  std::int64_t addressSpaceEnd() const { return next_offset_; }

  simsan::Checker* sanitizer() const { return sanitizer_; }
  simsan::StrictEffects* strictEffects() const { return strict_effects_; }

  /// The FIFO resource kernels serialize on (one kernel in flight at a
  /// time per device, as with a single busy CUDA stream).
  sim::FifoResource& computeResource() { return compute_; }

  // --- Fault injection (see fault::FaultInjector) -------------------------

  /// Install a straggler window: kernels whose compute starts inside
  /// [start, end) run `factor`x slower.  An empty window list keeps the
  /// kernel path identical to a fault-free build.
  void addSlowdownWindow(SimTime start, SimTime end, double factor);
  bool hasSlowdownWindows() const { return !slowdown_windows_.empty(); }

  /// Compute slowdown factor at `at` (max over overlapping windows;
  /// 1.0 outside every window).
  double slowdownAt(SimTime at) const;

  /// Observer for completed kernels (name, compute start/end, final
  /// completion including any in-kernel quiet).
  using KernelSpanFn = std::function<void(
      const std::string& name, SimTime start, SimTime end,
      SimTime completion)>;
  void setKernelSpanObserver(KernelSpanFn fn) {
    kernel_span_observer_ = std::move(fn);
  }
  void notifyKernelSpan(const std::string& name, SimTime start, SimTime end,
                        SimTime completion) const {
    if (kernel_span_observer_) {
      kernel_span_observer_(name, start, end, completion);
    }
  }

  std::span<float> storageSpan(std::int64_t offset, std::int64_t size);

 private:
  /// A reusable hole in the bump-allocated address space, kept sorted by
  /// offset and coalesced with its neighbors.
  struct FreeBlock {
    std::int64_t offset;
    std::int64_t size;
  };

  struct SlowdownWindow {
    SimTime start;
    SimTime end;
    double factor;
  };

  std::int64_t takeOffset(std::int64_t n);

  int id_;
  std::int64_t capacity_bytes_;
  ExecutionMode mode_;
  simsan::Checker* sanitizer_ = nullptr;
  simsan::StrictEffects* strict_effects_ = nullptr;
  std::int64_t used_bytes_ = 0;
  std::int64_t next_offset_ = 0;
  std::int64_t alloc_seq_ = 0;
  std::vector<FreeBlock> free_list_;
  std::vector<float> storage_;
  std::vector<SlowdownWindow> slowdown_windows_;
  sim::FifoResource compute_;
  KernelSpanFn kernel_span_observer_;
};

}  // namespace pgasemb::gpu
