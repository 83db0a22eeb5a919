#include "gpu/stream.hpp"

#include <algorithm>
#include <utility>

#include "gpu/device.hpp"
#include "gpu/gpu_event.hpp"
#include "simsan/strict.hpp"
#include "sim/simulator.hpp"
#include "util/expect.hpp"

namespace pgasemb::gpu {

Stream::Stream(sim::Simulator& simulator, Device& device, std::string name)
    : simulator_(simulator), device_(device), name_(std::move(name)) {}

void Stream::enableSanitizer(simsan::Checker& checker) {
  sanitizer_ = &checker;
  actor_ = checker.newActor(name_);
}

void Stream::enqueue(SimTime ready, std::string label, Op op) {
  if (sanitizer_ != nullptr) {
    // Host-order edge: everything the host observed before this enqueue
    // happens-before the op's execution (cudaLaunch semantics — the op
    // may consume host-prepared state).
    op = [this, snap = sanitizer_->snapshot(simsan::Checker::kHost),
          inner = std::move(op)](SimTime start,
                                 std::function<void(SimTime)> done) mutable {
      sanitizer_->joinClock(actor_, snap);
      inner(start, std::move(done));
    };
  }
  queue_.push_back(Pending{ready, std::move(label), std::move(op)});
  if (!busy_) tryStartNext();
}

void Stream::tryStartNext() {
  if (busy_ || queue_.empty()) return;
  Pending next = std::move(queue_.front());
  queue_.pop_front();
  busy_ = true;

  const SimTime start =
      std::max({last_completion_, next.ready, simulator_.now()});
  // Invoke the op at its start time so any resource acquisitions it makes
  // happen in global simulated-time order.
  simulator_.scheduleAt(
      start, [this, start, op = std::move(next.op)]() mutable {
        op(start, [this](SimTime end) {
          PGASEMB_ASSERT(end >= simulator_.now(),
                         "op completion in the past");
          if (end == simulator_.now()) {
            opFinished(end);
          } else {
            simulator_.scheduleAt(end, [this, end] { opFinished(end); });
          }
        });
      });
}

void Stream::opFinished(SimTime end) {
  busy_ = false;
  last_completion_ = std::max(last_completion_, end);
  tryStartNext();
}

namespace {

/// Per-launch state shared between a kernel's op, its slice events and
/// its completion event.  Holding the descriptor here (instead of
/// copying it into every closure) is what keeps slice events at a
/// shared_ptr + index + timestamp — small enough for EventFn's inline
/// buffer, and free of the per-slice deep copy of the descriptor's
/// capture (the message plan) that used to dominate hot-run profiles.
struct KernelLaunch {
  KernelDesc desc;
  SimTime grant_start;
  SimTime grant_end;
  std::function<void(SimTime)> done;
};

}  // namespace

void Stream::enqueueKernel(SimTime ready, KernelDesc desc) {
  PGASEMB_CHECK(desc.slices >= 1, "kernel needs >= 1 slice");
  auto state = std::make_shared<KernelLaunch>();
  state->desc = std::move(desc);
  enqueue(ready, state->desc.name,
          [this, state](SimTime start, std::function<void(SimTime)> done) {
            const KernelDesc& d = state->desc;
            SimTime duration = d.duration;
            if (device_.hasSlowdownWindows()) {
              // Straggler fault: stretch the kernel by the slowdown in
              // force when its compute actually starts (deterministic —
              // the FIFO fixes the start).
              const double factor = device_.slowdownAt(
                  device_.computeResource().nextFreeTime(start));
              if (factor > 1.0) duration = duration * factor;
            }
            const auto grant =
                device_.computeResource().acquire(start, duration);
            state->grant_start = grant.start;
            state->grant_end = grant.end;
            if (sanitizer_ != nullptr) {
              for (const auto& effect : d.mem_effects) {
                sanitizer_->access(actor_, effect.device, effect.range,
                                   effect.kind, grant.start, grant.end,
                                   effect.label.empty() ? d.name
                                                        : effect.label);
              }
            }
            if (d.functional_body) {
              // Strict-effects scope: every mutable span materialized
              // inside the body is checked against the declared
              // footprint (mem_effects plus attached put_effects).
              auto* strict = device_.strictEffects();
              if (strict != nullptr) {
                strict->beginKernel(d.name, d.mem_effects, d.put_effects);
                d.functional_body();
                strict->endKernel();
              } else {
                d.functional_body();
              }
            }
            const SliceClock clock{grant.start, duration, d.slices};
            if (d.on_launch) {
              // Fast path: the whole launch in one call, each slice at
              // its original time (see KernelDesc::on_launch).
              d.on_launch(clock);
            } else if (d.on_slice) {
              slice_batch_.reserve(static_cast<std::size_t>(d.slices));
              for (int i = 0; i < d.slices; ++i) {
                const SimTime at = clock.at(i);
                slice_batch_.push_back(
                    {at, [state, i, at] { state->desc.on_slice(i, at); }});
              }
              simulator_.scheduleBatch(slice_batch_);
            }
            state->done = std::move(done);
            simulator_.scheduleAt(grant.end, [this, state] {
              const SimTime completion =
                  state->desc.finalize
                      ? state->desc.finalize(state->grant_end)
                      : state->grant_end;
              PGASEMB_ASSERT(
                  completion >= state->grant_end,
                  "finalize moved completion before compute end");
              device_.notifyKernelSpan(state->desc.name, state->grant_start,
                                       state->grant_end, completion);
              // Detach before invoking: done() may start the next op,
              // which must not observe this launch's callback as live.
              auto done_cb = std::move(state->done);
              done_cb(completion);
            });
          });
}

void Stream::enqueueFixed(SimTime ready, std::string label, SimTime duration,
                          std::function<void()> body) {
  enqueue(ready, std::move(label),
          [duration, body = std::move(body)](
              SimTime start, std::function<void(SimTime)> done) {
            if (body) body();
            done(start + duration);
          });
}

void Stream::enqueueRecord(SimTime ready, GpuEvent& event) {
  enqueue(ready, "record",
          [this, &event](SimTime start, std::function<void(SimTime)> done) {
            if (sanitizer_ != nullptr) sanitizer_->release(actor_, &event);
            event.record(start);
            done(start);
          });
}

void Stream::enqueueWaitEvent(SimTime ready, GpuEvent& event) {
  enqueue(ready, "wait_event",
          [this, &event](SimTime start, std::function<void(SimTime)> done) {
            event.onRecorded(
                [this, &event, start, done = std::move(done)](SimTime at) {
                  if (sanitizer_ != nullptr) {
                    sanitizer_->acquire(actor_, &event);
                  }
                  done(std::max(start, at));
                });
          });
}

}  // namespace pgasemb::gpu
