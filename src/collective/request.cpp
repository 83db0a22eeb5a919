#include "collective/request.hpp"

#include "gpu/system.hpp"
#include "util/expect.hpp"

namespace pgasemb::collective {

bool Request::completed() const {
  PGASEMB_CHECK(valid(), "completed() on an empty request");
  return state_->completed;
}

SimTime Request::completionTime() const {
  PGASEMB_CHECK(valid() && state_->completed,
                "completionTime() before completion");
  return state_->completion;
}

SimTime Request::startTime() const {
  PGASEMB_CHECK(valid() && state_->completed, "startTime() before completion");
  return state_->first_start;
}

SimTime Request::wait(gpu::MultiGpuSystem& system) {
  PGASEMB_CHECK(valid(), "wait() on an empty request");
  system.simulator().run();
  PGASEMB_ASSERT(state_->completed, "collective did not complete on drain");
  if (auto* san = system.sanitizer()) {
    // request.wait() edge: the host has observed the whole collective.
    san->acquire(simsan::Checker::kHost, state_.get());
  }
  // Every node's host blocks until the collective completes, then pays
  // one sync call.
  system.hostWaitUntil(state_->completion);
  system.hostAdvance(system.costModel().stream_sync_overhead);
  if (state_->on_complete) {
    auto fn = std::move(state_->on_complete);
    state_->on_complete = nullptr;
    fn();
  }
  return system.hostNow();
}

}  // namespace pgasemb::collective
