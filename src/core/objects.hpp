// Simulated synchronization objects.  Semantics mirror src/solaris
// (priority-ordered FIFO wakeups, direct handoff), with the replay
// rules of paper §3.2 applied by the engine.
#pragma once

#include <optional>
#include <vector>

#include "core/compiler.hpp"
#include "trace/event.hpp"
#include "ult/wait_queue.hpp"

namespace vppb::core {

using ult::ThreadId;
using ult::WaitQueue;

struct SimMutex {
  ThreadId owner = ult::kNoThread;
  WaitQueue waiters;

  void reset() {
    owner = ult::kNoThread;
    waiters.clear();
  }
};

struct SimSema {
  std::int64_t count = 0;
  WaitQueue waiters;

  void reset() {
    count = 0;
    waiters.clear();
  }
};

struct SimCond {
  WaitQueue waiters;
  /// Replay rule symmetric to the barrier rule: a cond_signal that woke
  /// a waiter in the recording but finds none in the simulation (the
  /// waiter has not arrived yet under the different schedule) is
  /// remembered here and consumed by the next arriving waiter.  Without
  /// it the signal would be lost and the recorded waiter would sleep
  /// forever — the condition-variable hazard of paper §6.
  std::int64_t pending_signals = 0;
  /// The paper's barrier rule: a cond_broadcast that released N threads
  /// in the recording blocks the broadcaster until N threads are
  /// waiting in the simulation, then releases them all ("the last
  /// thread arriving at the barrier releases all the waiting threads").
  struct PendingBroadcast {
    ThreadId broadcaster = ult::kNoThread;
    std::int64_t needed = 0;
  };
  std::optional<PendingBroadcast> pending;

  void reset() {
    waiters.clear();
    pending_signals = 0;
    pending.reset();
  }
};

struct SimRwlock {
  int readers = 0;
  ThreadId writer = ult::kNoThread;
  int waiting_writers = 0;
  WaitQueue reader_q;
  WaitQueue writer_q;

  void reset() {
    readers = 0;
    writer = ult::kNoThread;
    waiting_writers = 0;
    reader_q.clear();
    writer_q.clear();
  }
};

/// Objects of one kind, indexed by the compiler's dense per-kind slots
/// (every slot is below its kind's FlatProgram::*_ids count).  The
/// table is sized once per run and NEVER grows mid-run, so references
/// handed out by at() stay valid while the engine creates or wakes
/// other objects of the same kind (the unlock → reacquire chain holds
/// one mutex reference while queueing on another).
template <typename T>
class ObjectSlab {
 public:
  /// Sizes the table for slots [0, ids) and resets every object to its
  /// initial state, keeping allocated storage — the wait-queue buffers
  /// survive, which is what makes a reused engine workspace
  /// allocation-free in steady state.
  void configure(std::uint32_t ids) {
    objects_.resize(ids);
    for (T& obj : objects_) obj.reset();
  }

  T& at(std::uint32_t slot) { return objects_[slot]; }

 private:
  std::vector<T> objects_;
};

/// Object tables indexed by the compiler's per-kind slots.
struct ObjectTable {
  ObjectSlab<SimMutex> mutexes;
  ObjectSlab<SimSema> semas;
  ObjectSlab<SimCond> conds;
  ObjectSlab<SimRwlock> rwlocks;

  /// Presizes every slab from the program's id bounds and resets all
  /// object state for a fresh run.
  void configure(const FlatProgram& fp) {
    mutexes.configure(fp.mutex_ids);
    semas.configure(fp.sema_ids);
    conds.configure(fp.cond_ids);
    rwlocks.configure(fp.rwlock_ids);
  }

  SimMutex& mutex(std::uint32_t id) { return mutexes.at(id); }
  SimSema& sema(std::uint32_t id) { return semas.at(id); }
  SimCond& cond(std::uint32_t id) { return conds.at(id); }
  SimRwlock& rwlock(std::uint32_t id) { return rwlocks.at(id); }
};

}  // namespace vppb::core
