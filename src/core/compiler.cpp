#include "core/compiler.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "util/error.hpp"

namespace vppb::core {

namespace {

/// Position of `tid` in the ascending thread table, or table.size().
std::size_t find_thread(std::span<const FlatThread> table, ThreadId tid) {
  const auto it = std::lower_bound(
      table.begin(), table.end(), tid,
      [](const FlatThread& t, ThreadId id) { return t.tid < id; });
  return it != table.end() && it->tid == tid
             ? static_cast<std::size_t>(it - table.begin())
             : table.size();
}

/// Raw-id -> dense-slot map for one object kind.  Slots are handed out
/// in first-touch order over the (ascending-tid, step-order) walk of
/// the program, so the numbering is a pure function of the trace.
class SlotMap {
 public:
  std::uint32_t slot(std::uint32_t id) {
    const auto [it, inserted] =
        map_.try_emplace(id, static_cast<std::uint32_t>(map_.size()));
    return it->second;
  }
  std::uint32_t count() const { return static_cast<std::uint32_t>(map_.size()); }

 private:
  std::unordered_map<std::uint32_t, std::uint32_t> map_;
};

/// Assigns the engine-internal dense object slots of one step.  A cond
/// wait names its mutex in `arg`, so that id maps into the mutex table
/// too (slot2).
void assign_slots(Step& s, SlotMap& mutexes, SlotMap& semas, SlotMap& conds,
                  SlotMap& rwlocks) {
  switch (trace::op_obj_kind(s.op)) {
    case trace::ObjKind::kMutex: s.slot = mutexes.slot(s.obj.id); break;
    case trace::ObjKind::kSema: s.slot = semas.slot(s.obj.id); break;
    case trace::ObjKind::kCond: s.slot = conds.slot(s.obj.id); break;
    case trace::ObjKind::kRwlock: s.slot = rwlocks.slot(s.obj.id); break;
    default: break;
  }
  if (s.op == trace::Op::kCondWait || s.op == trace::Op::kCondTimedwait)
    s.slot2 = mutexes.slot(static_cast<std::uint32_t>(s.arg));
}

/// One thread's state during the record walk.
struct ThreadBuild {
  Step* steps = nullptr;  ///< arena array sized by the counting pass
  std::uint32_t cap = 0;  ///< calls counted for this thread
  std::uint32_t n = 0;    ///< steps written so far
  SimTime accum;          ///< CPU charged since the thread's last step
  Step open;              ///< the call waiting for its return
  bool has_open = false;
  bool seen = false;
};

}  // namespace

const FlatThread& CompiledTrace::thread(ThreadId tid) const {
  VPPB_CHECK_MSG(flat != nullptr, "trace was never compiled");
  const std::size_t i = find_thread(flat->threads, tid);
  VPPB_CHECK_MSG(i < flat->threads.size(), "no compiled thread T" << tid);
  return flat->threads[i];
}

CompiledTrace compile(const trace::Trace& trace) {
  return compile(trace, nullptr);
}

CompiledTrace compile(const trace::Trace& trace, const RunGuard* guard) {
  CompiledTrace out;
  out.recorded_duration = trace.duration();
  auto fp = std::make_shared<FlatProgram>();

  // The thread table, in ascending tid order.  A tid listed twice in
  // the metadata keeps its first entry.
  std::map<ThreadId, const trace::ThreadMeta*> metas;
  for (const trace::ThreadMeta& m : trace.threads) metas.emplace(m.tid, &m);
  FlatThread* table = fp->arena.make_array<FlatThread>(metas.size());
  fp->threads = {table, metas.size()};
  std::size_t next = 0;
  for (const auto& [tid, meta] : metas) {
    FlatThread& ft = table[next++];
    ft.tid = tid;
    ft.bound = meta->bound;
    ft.initial_priority = meta->initial_priority;
  }
  std::vector<ThreadBuild> build(metas.size());
  auto index_of = [&](const trace::Record& r) {
    const std::size_t i = find_thread(fp->threads, r.tid);
    VPPB_CHECK_MSG(i < build.size(),
                   "record from thread T" << r.tid << " with no metadata");
    return i;
  };
  // Governance checkpoint: cheap enough per batch that a cancelled or
  // wall-overdue request bails out of even a multi-GB compile.
  auto checkpoint = [guard](std::size_t i) {
    if (guard != nullptr && (i & 4095u) == 4095u) {
      guard->check_cancel();
      guard->check_wall();
    }
  };

  // Counting pass: every call record except the collection markers
  // becomes at most one step of its thread, so this sizes each arena
  // step array before the walk below writes into it.
  SimTime prev_at = SimTime::zero();
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    checkpoint(i);
    const trace::Record& r = trace.records[i];
    VPPB_CHECK_MSG(r.at >= prev_at, "record " << i << " goes back in time ("
                                              << r.at << " < " << prev_at
                                              << ")");
    prev_at = r.at;
    const std::size_t t = index_of(r);
    if (r.phase == trace::Phase::kCall && r.op != trace::Op::kStartCollect &&
        r.op != trace::Op::kEndCollect)
      ++build[t].cap;
  }
  for (ThreadBuild& tb : build) tb.steps = fp->arena.make_array<Step>(tb.cap);

  prev_at = SimTime::zero();
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    checkpoint(i);
    const trace::Record& r = trace.records[i];
    const std::size_t t = index_of(r);
    ThreadBuild& tb = build[t];
    // Single-LWP attribution: the interval since the previous record was
    // executed by this record's thread.
    tb.accum += r.at - prev_at;
    prev_at = r.at;
    if (!tb.seen) {
      tb.seen = true;
      table[t].first_record_at = r.at;
    }

    if (r.phase == trace::Phase::kReturn) {
      // Close the open step.
      VPPB_CHECK_MSG(tb.has_open && tb.open.op == r.op,
                     "return of " << trace::op_name(r.op) << " by T" << r.tid
                                  << " without a matching call");
      tb.has_open = false;
      Step& s = tb.steps[tb.n++];
      s = tb.open;
      s.outcome = r.arg;
      if (s.op == trace::Op::kIoWait ||
          (s.op == trace::Op::kCondTimedwait && s.outcome == 0)) {
        // Recorded I/O latency (extension) and a cond_timedwait that
        // timed out in the recording (paper §3.2) replay as a pure delay
        // of the recorded length; the tail interval charged to this
        // thread was waiting, not compute.
        s.delay = r.at - s.logged_at;
      } else {
        s.op_cost = tb.accum;
      }
      tb.accum = SimTime::zero();
      continue;
    }

    VPPB_CHECK_MSG(!tb.has_open,
                   "T" << r.tid << " has two open calls in the log");
    if (r.op == trace::Op::kStartCollect) {
      // Keep the accumulated interval: compute performed before the
      // first library call belongs to the thread that makes it.
      continue;
    }
    if (r.op == trace::Op::kEndCollect) {
      tb.accum = SimTime::zero();
      continue;
    }
    Step s;
    s.cpu = tb.accum;
    tb.accum = SimTime::zero();
    s.op = r.op;
    s.obj = r.obj;
    s.arg = r.arg;
    s.loc = r.loc;
    s.logged_at = r.at;
    if (trace::op_is_single(r.op)) {
      tb.steps[tb.n++] = s;
    } else {
      tb.open = s;
      tb.has_open = true;
    }
  }

  // Per-thread totals, the created-in-log flags, the thr_setprio values
  // and the dense object slots, in (ascending tid, step order).
  SlotMap mutexes, semas, conds, rwlocks;
  for (std::size_t i = 0; i < build.size(); ++i) {
    const ThreadBuild& tb = build[i];
    VPPB_CHECK_MSG(!tb.has_open, "log ends with an unreturned call");
    FlatThread& ft = table[i];
    ft.steps = {tb.steps, tb.n};
    fp->total_steps += tb.n;
    for (Step& s : std::span(tb.steps, tb.n)) {
      assign_slots(s, mutexes, semas, conds, rwlocks);
      ft.total_cpu += s.cpu + s.op_cost;
      if (s.op == trace::Op::kThrSetPrio)
        out.setprio_values.push_back(static_cast<int>(s.arg));
      if (s.op == trace::Op::kThrCreate && s.outcome != 0) {
        const std::size_t child =
            find_thread(fp->threads, static_cast<ThreadId>(s.outcome));
        if (child < build.size()) table[child].created_in_log = true;
      }
    }
  }
  fp->mutex_ids = mutexes.count();
  fp->sema_ids = semas.count();
  fp->cond_ids = conds.count();
  fp->rwlock_ids = rwlocks.count();
  std::sort(out.setprio_values.begin(), out.setprio_values.end());
  out.setprio_values.erase(
      std::unique(out.setprio_values.begin(), out.setprio_values.end()),
      out.setprio_values.end());
  out.flat = std::move(fp);
  return out;
}

}  // namespace vppb::core
