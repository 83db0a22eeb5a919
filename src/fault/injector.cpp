#include "fault/injector.hpp"

#include <algorithm>
#include <iterator>
#include <vector>

#include "fabric/topology.hpp"
#include "util/expect.hpp"

namespace pgasemb::fault {

namespace {
/// Retry cap per launch call: a transient launch failure is re-driven at
/// most this many times before the driver "recovers" regardless (keeps a
/// high probability spec from stalling the host forever).
constexpr int kMaxLaunchRetriesPerCall = 8;

/// Retransmission of one-sided puts and collective chunks whose flows a
/// link flap dropped. The sender notices the missing delivery
/// acknowledgement after kPutTimeout and re-injects; consecutive losses
/// back off exponentially (capped), so a flow caught in a flap window
/// re-enters the fabric shortly after the window closes.
constexpr SimTime kPutTimeout = SimTime::us(50.0);
constexpr double kBackoffMultiplier = 2.0;
constexpr SimTime kMaxBackoff = SimTime::ms(1.0);
/// Safety bound: a flow still undeliverable after this many attempts
/// throws (a flap wider than the whole retry budget is a plan bug, not a
/// recoverable fault).
constexpr int kMaxAttempts = 32;
}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan) : plan_(plan) {
  PGASEMB_CHECK(plan_.horizon > SimTime::zero(),
                "fault plan horizon must be positive");
}

void FaultInjector::arm(gpu::MultiGpuSystem& system, fabric::Fabric& fabric) {
  system_ = &system;
  fabric_ = &fabric;
  materialized_.clear();
  launch_faults_.clear();
  domains_.reset();
  degraded_spans_.clear();
  stats_ = ResilienceStats{};
  launch_retry_penalty_ = system.costModel().kernel_launch_overhead +
                          system.costModel().stream_sync_overhead;

  // Total time the retry ladder can bridge before reliableTransfer gives
  // up (sum of the capped exponential backoffs).
  SimTime retry_budget = SimTime::zero();
  SimTime step = kPutTimeout;
  for (int i = 1; i < kMaxAttempts; ++i) {
    retry_budget += step;
    step = std::min(step * kBackoffMultiplier, kMaxBackoff);
  }

  Rng rng(plan_.seed);
  const int n = fabric.numGpus();
  for (FaultSpec spec : plan_.specs) {
    if (!spec.windowed()) {
      // Seeded draw: start in [0.1, 0.5) of the horizon, duration in
      // [0.1, 0.3) — mid-run faults, reproducible from the plan seed.
      spec.start = plan_.horizon * rng.uniformDouble(0.1, 0.5);
      spec.end = spec.start + plan_.horizon * rng.uniformDouble(0.1, 0.3);
      // The drawn width scales with the horizon, but a flap wider than
      // the retry ladder is unrecoverable by design — clamp seeded flaps
      // to half the budget so any horizon yields a survivable outage.
      // Pinned windows are taken verbatim and may still exceed it.
      if (spec.kind == FaultKind::kLinkFlap ||
          spec.kind == FaultKind::kNicFlap) {
        spec.end = std::min(spec.end, spec.start + retry_budget * 0.5);
      }
    }
    materialized_.push_back(spec);
    ++stats_.faults_injected;

    switch (spec.kind) {
      case FaultKind::kLinkDegrade:
      case FaultKind::kLinkFlap: {
        fabric::LinkFaultWindow window;
        window.start = spec.start;
        window.end = spec.end;
        if (spec.kind == FaultKind::kLinkFlap) {
          window.flap = true;
        } else {
          window.bandwidth_factor = spec.magnitude;
          window.extra_latency = spec.extra_latency;
        }
        // Install on every link of every matching route, once per link
        // (shared hops — NVSwitch ports, NIC up-links — degrade for all
        // routes through them, as on real hardware). Dedup via a vector
        // scan: route sets are small, and a pointer-keyed std::set would
        // order by allocation address (pgaslint: ptr-key-ordered).
        std::vector<fabric::Link*> seen;
        for (int src = 0; src < n; ++src) {
          if (spec.a >= 0 && src != spec.a) continue;
          for (int dst = 0; dst < n; ++dst) {
            if (dst == src || (spec.b >= 0 && dst != spec.b)) continue;
            for (fabric::Link* link : fabric.topology().route(src, dst)) {
              if (std::find(seen.begin(), seen.end(), link) == seen.end()) {
                seen.push_back(link);
                link->addFaultWindow(window);
              }
            }
          }
        }
        PGASEMB_CHECK(!seen.empty() || n <= 1,
                      "fault spec matched no link: ", spec.describe());
        break;
      }
      case FaultKind::kStraggler: {
        // A device pinned beyond this system's size matches nothing — a
        // scaling sweep re-arms the same spec at 1..N GPUs and the
        // straggler is simply absent at the small points (same rule as
        // a link spec that matches no route).
        if (spec.a >= system.numGpus()) break;
        for (int d = 0; d < system.numGpus(); ++d) {
          if (spec.a >= 0 && d != spec.a) continue;
          system.device(d).addSlowdownWindow(spec.start, spec.end,
                                             spec.magnitude);
        }
        break;
      }
      case FaultKind::kLaunchFail: {
        if (spec.a >= system.numGpus()) break;
        for (int d = 0; d < system.numGpus(); ++d) {
          if (spec.a >= 0 && d != spec.a) continue;
          LaunchFaultState state;
          state.probability = spec.magnitude;
          state.start = spec.start;
          state.end = spec.end;
          state.rng = rng.fork();
          launch_faults_.emplace_back(d, state);
        }
        break;
      }
      case FaultKind::kNicDegrade:
      case FaultKind::kNicFlap: {
        // A node pinned beyond this topology matches nothing (same sweep
        // rule as devices); single-node topologies have no NICs at all.
        fabric::LinkFaultWindow window;
        window.start = spec.start;
        window.end = spec.end;
        if (spec.kind == FaultKind::kNicFlap) {
          window.flap = true;
        } else {
          window.bandwidth_factor = spec.magnitude;
        }
        auto& topo = fabric.topology();
        for (int node = 0; node < topo.numNodes(); ++node) {
          if (spec.a >= 0 && node != spec.a) continue;
          for (fabric::Link* link : topo.nicLinks(node)) {
            link->addFaultWindow(window);
          }
        }
        break;
      }
      case FaultKind::kLeaderFail:
        // Pure routing fault: recorded in the node fault domains below,
        // nothing to install on links or devices.
        break;
      case FaultKind::kNodeStraggle: {
        auto& topo = fabric.topology();
        for (int node = 0; node < topo.numNodes(); ++node) {
          if (spec.a >= 0 && node != spec.a) continue;
          const int base = node * topo.gpusPerNode();
          for (int d = base; d < base + topo.gpusPerNode(); ++d) {
            system.device(d).addSlowdownWindow(spec.start, spec.end,
                                               spec.magnitude);
          }
        }
        break;
      }
    }
  }

  auto& topo = fabric.topology();
  if (topo.numNodes() > 1) {
    domains_ = std::make_unique<NodeFaultDomains>(materialized_,
                                                  topo.numNodes(),
                                                  topo.gpusPerNode());
  }

  if (!launch_faults_.empty()) {
    system.setLaunchFaultHook([this](int device, SimTime host_now) {
      return launchFaultDelay(device, host_now);
    });
  }
}

void FaultInjector::recordHierFallback(SimTime at, SimTime until) {
  ++stats_.hier_fallbacks;
  if (until <= at) return;
  // Merge [at, until) with every recorded span it overlaps or touches.
  auto it = degraded_spans_.upper_bound(at);
  if (it != degraded_spans_.begin() && std::prev(it)->second >= at) --it;
  while (it != degraded_spans_.end() && it->first <= until) {
    at = std::min(at, it->first);
    until = std::max(until, it->second);
    stats_.degraded_time -= it->second - it->first;
    it = degraded_spans_.erase(it);
  }
  degraded_spans_.emplace(at, until);
  stats_.degraded_time += until - at;
}

SimTime FaultInjector::launchFaultDelay(int device, SimTime host_now) {
  SimTime delay = SimTime::zero();
  for (auto& [dev, state] : launch_faults_) {
    if (dev != device) continue;
    if (host_now < state.start || host_now >= state.end) continue;
    int tries = 0;
    while (tries < kMaxLaunchRetriesPerCall &&
           state.rng.uniformDouble() < state.probability) {
      // Each failed cudaLaunchKernel costs the launch overhead plus a
      // sync-scale driver recovery before the host retries.
      delay += launch_retry_penalty_;
      ++stats_.launch_retries;
      ++stats_.faults_injected;
      ++tries;
    }
  }
  return delay;
}

FaultInjector::PutResult FaultInjector::reliableTransfer(
    int src, int dst, std::int64_t payload_bytes, std::int64_t n_messages,
    SimTime at, double bandwidth_fraction, bool collective) {
  PGASEMB_ASSERT(fabric_ != nullptr, "FaultInjector used before arm()");
  PutResult out;
  SimTime inject = at;
  SimTime backoff = kPutTimeout;
  for (int attempt = 1;; ++attempt) {
    const auto d = fabric_->transfer(src, dst, payload_bytes, n_messages,
                                     inject, bandwidth_fraction);
    if (!d.dropped) {
      out.acked = d.delivered;
      out.attempts = attempt;
      if (attempt > 1) {
        stats_.recovery_latency += d.delivered - out.first_loss;
      }
      return out;
    }
    if (attempt == 1) out.first_loss = d.delivered;
    ++stats_.dropped_flows;
    stats_.dropped_bytes += payload_bytes;
    ++stats_.faults_injected;
    PGASEMB_CHECK(attempt < kMaxAttempts, "flow ", src, "->",
                  dst, " still undeliverable after ", attempt,
                  " attempts — flap window wider than the retry budget");
    // The sender notices the missing delivery ack after the timeout and
    // re-injects; consecutive losses back off exponentially (capped).
    inject = std::max(d.delivered, inject + backoff);
    backoff = std::min(backoff * kBackoffMultiplier, kMaxBackoff);
    if (collective) {
      ++stats_.collective_reissues;
    } else {
      ++stats_.retransmits;
    }
    stats_.retransmitted_bytes += payload_bytes;
  }
}

FaultInjector::PutResult FaultInjector::reliablePut(
    int src, int dst, std::int64_t payload_bytes, std::int64_t n_messages,
    SimTime at) {
  return reliableTransfer(src, dst, payload_bytes, n_messages, at,
                          /*bandwidth_fraction=*/1.0, /*collective=*/false);
}

fabric::Fabric::Delivery FaultInjector::reliableCollective(
    int src, int dst, std::int64_t payload_bytes, std::int64_t n_messages,
    SimTime at, double bandwidth_fraction) {
  const PutResult r =
      reliableTransfer(src, dst, payload_bytes, n_messages, at,
                       bandwidth_fraction, /*collective=*/true);
  return fabric::Fabric::Delivery{at, r.acked, false};
}

}  // namespace pgasemb::fault
