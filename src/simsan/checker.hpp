// simsan: happens-before race, bounds, and lifetime checking for
// simulated device memory.
//
// The checker maintains a vector clock per *actor* — the independently
// progressing agents of the simulation: the host thread, each stream
// (default and side streams), each PGAS in-kernel put engine, and each
// collective's per-rank op.  Synchronization primitives establish
// happens-before edges:
//
//   - stream FIFO order          same actor => program order
//   - host -> enqueue            ops join the host clock captured at
//                                enqueue time when they start
//   - GpuEvent record/wait       release on record, acquire on wait
//   - kernel quiet completion    PGAS put actor joins its stream actor
//                                when the kernel's finalize (quiet) runs
//   - collective retirement      all participating rank ops barrier at
//                                the collective's completion
//   - Request::wait / syncAll    host acquires the collective state /
//                                joins every stream actor
//
// Every declared access is logged with its actor's current epoch and a
// clock snapshot; an overlapping, conflicting pair with no happens-before
// edge in either direction is a race, regardless of where the two
// accesses happened to land on the simulated timeline.  Allocation
// tracking adds out-of-bounds, use-after-free, double-free, and leak
// detection on top.
//
// The checker is entirely passive: nothing in the simulator behaves
// differently when it is attached, so timings (and benchmark output) are
// byte-identical with and without it. The one exception is a SeededBug,
// which only tests plant.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "simsan/access.hpp"
#include "util/time.hpp"

namespace pgasemb::simsan {

/// Index into the checker's actor table.
using ActorId = int;

/// clock[a] = how far into actor a's history the owner has observed.
using VectorClock = std::vector<std::uint64_t>;

struct Violation {
  enum class Kind {
    kRace,
    kOutOfBounds,
    kUseAfterFree,
    kDoubleFree,
    kLeak,
    kUndeclaredEffect,  ///< strict-effects mode: observed access escaped
                        ///< the declared MemEffect footprint
  };
  Kind kind;
  std::string message;
};

const char* violationKindName(Violation::Kind kind);

/// Checker verdict; `report()` renders one line per recorded violation.
struct Summary {
  int races = 0;
  int out_of_bounds = 0;
  int lifetime_errors = 0;  ///< use-after-free + double-free
  int leaks = 0;
  int undeclared_effects = 0;  ///< strict-effects findings (simsan-strict)
  std::size_t accesses_logged = 0;
  std::size_t violations_total = 0;
  /// First `kMaxRecordedViolations` violations, in detection order.
  std::vector<Violation> violations;

  bool clean() const {
    return races == 0 && out_of_bounds == 0 && lifetime_errors == 0 &&
           leaks == 0 && undeclared_effects == 0;
  }
  std::string report() const;
};

/// A synchronization bug planted in the code simsan certifies, so a test
/// can check that the checker catches it by name. Tests seed one through
/// engine::SystemBuilder::seedBug; each bug site asks the attached
/// checker, so a run without simsan never takes a seeded path.
enum class SeededBug {
  kNone,
  /// PGAS retransmit: quiet latches the dropped attempt's loss instead
  /// of the acked retransmit, whose write lands under a never-joined
  /// actor.
  kRetransmitWithoutQuiet,
  /// Leader failover: the standby's staging rebuild runs under a
  /// never-synchronized actor, and nothing orders the exchange after it.
  kRebuildWithoutRequiet,
  /// Hierarchical all-to-all: the scatter starts when the inter-node
  /// flow is injected instead of delivered, with no happens-before edge.
  kScatterBeforeInterFlow,
};

class Checker {
 public:
  /// The host thread's actor, created by the constructor.
  static constexpr ActorId kHost = 0;

  /// Cap on stored violation records (counts keep accumulating past it).
  static constexpr std::size_t kMaxRecordedViolations = 64;

  Checker();

  // --- Actors and happens-before edges -----------------------------------

  ActorId newActor(std::string name);

  /// New actor that has observed everything `parent` has done so far
  /// (fork edge: parent's history happens-before the child's first step).
  ActorId forkActor(std::string name, ActorId parent);

  const std::string& actorName(ActorId actor) const;
  int numActors() const { return static_cast<int>(clocks_.size()); }

  /// Advance `src`'s epoch and return a copy of its clock. The copy
  /// carries "everything src did up to now" into a later joinClock().
  VectorClock snapshot(ActorId src);

  /// `dst` has observed everything in `clock`.
  void joinClock(ActorId dst, const VectorClock& clock);

  /// Direct edge src -> dst (advances src's epoch first).
  void joinActor(ActorId dst, ActorId src);

  /// Release semantics on an opaque sync object (event, collective
  /// state): advance src's epoch, then fold its clock into the object's.
  void release(ActorId src, const void* sync);

  /// Acquire semantics: fold the object's clock into dst's. A sync object
  /// never released is a silent no-op (tolerant, adds no edge).
  void acquire(ActorId dst, const void* sync);

  // --- Allocation lifecycle ----------------------------------------------

  void onAlloc(int device, std::int64_t offset, std::int64_t size,
               std::string label);
  void onFree(int device, std::int64_t offset, std::int64_t size);

  /// Mark every currently-live allocation as system-lifetime (embedding
  /// tables, ...): exempt from the leak report.
  void setBaseline();

  /// Report live non-baseline allocations as leaks. Idempotent per
  /// allocation (a reported leak is not reported again).
  void leakCheck();

  // --- Access logging -----------------------------------------------------

  /// Log one access and eagerly check bounds, lifetime, and races against
  /// every previously logged access on the same device.
  void access(ActorId actor, int device, const StridedRange& range,
              AccessKind kind, SimTime start, SimTime finish,
              const std::string& label);

  // --- Seeded bugs -------------------------------------------------------

  void seedBug(SeededBug bug) { seeded_bug_ = bug; }
  bool seeded(SeededBug bug) const { return seeded_bug_ == bug; }

  // --- Results ------------------------------------------------------------

  bool clean() const {
    return races_ == 0 && out_of_bounds_ == 0 && lifetime_errors_ == 0 &&
           leaks_ == 0;
  }
  Summary summary() const;
  std::string report() const { return summary().report(); }

 private:
  struct AccessRecord {
    ActorId actor;
    StridedRange range;
    AccessKind kind;
    SimTime start;
    SimTime finish;
    std::string label;
    std::uint64_t epoch;  ///< actor's own component when logged
    VectorClock clock;    ///< full clock when logged
  };

  struct Allocation {
    std::int64_t offset;
    std::int64_t size;
    std::string label;
    bool live = true;
    bool baseline = false;
    bool leak_reported = false;
  };

  std::uint64_t tick(ActorId actor);
  void addViolation(Violation::Kind kind, std::string message);
  /// True iff the earlier record `a` happens-before the later record `b`.
  static bool happensBefore(const AccessRecord& a, const AccessRecord& b);
  /// Bounds + lifetime verdict; true when the access may also be
  /// race-checked (i.e. it landed inside live memory).
  bool checkBoundsAndLifetime(int device, const StridedRange& range,
                              const std::string& label);
  std::string describeAccess(const AccessRecord& rec) const;

  std::vector<std::string> actor_names_;
  std::vector<VectorClock> clocks_;
  std::unordered_map<const void*, VectorClock> sync_clocks_;

  // Indexed by device id (grown on demand).
  std::vector<std::vector<Allocation>> allocations_;
  std::vector<std::vector<AccessRecord>> accesses_;

  std::vector<Violation> violations_;
  std::size_t violations_total_ = 0;
  int races_ = 0;
  int out_of_bounds_ = 0;
  int lifetime_errors_ = 0;
  int leaks_ = 0;
  std::size_t accesses_logged_ = 0;
  SeededBug seeded_bug_ = SeededBug::kNone;
};

}  // namespace pgasemb::simsan
