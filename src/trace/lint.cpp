#include "trace/lint.hpp"

#include <unordered_map>
#include <unordered_set>

#include "util/strings.hpp"

namespace vppb::trace {
namespace {

const char* severity_name(LintSeverity s) {
  return s == LintSeverity::kError ? "error" : "warning";
}

class Linter {
 public:
  explicit Linter(const Trace& t) : t_(t) {}

  LintReport run() {
    collect_threads();
    for (std::size_t i = 0; i < t_.records.size(); ++i) check(i);
    return std::move(report_);
  }

 private:
  void add(LintSeverity sev, std::size_t i, std::string msg) {
    LintIssue issue;
    issue.severity = sev;
    issue.record_index = i;
    issue.message = std::move(msg);
    issue.location = t_.location_string(t_.records[i]);
    if (sev == LintSeverity::kError)
      ++report_.errors;
    else
      ++report_.warnings;
    report_.issues.push_back(std::move(issue));
  }

  /// Every identity a join could legally name: declared metadata,
  /// created threads, and any thread that produced a record (the main
  /// thread has no create record of its own).
  void collect_threads() {
    for (const ThreadMeta& m : t_.threads) known_threads_.insert(m.tid);
    for (const Record& r : t_.records) {
      known_threads_.insert(r.tid);
      if (r.op == Op::kThrCreate && r.phase == Phase::kCall)
        known_threads_.insert(static_cast<ThreadId>(r.obj.id));
    }
  }

  void check(std::size_t i) {
    const Record& r = t_.records[i];
    if (i > 0 && r.at < t_.records[i - 1].at)
      add(LintSeverity::kError, i,
          strprintf("timestamp %s goes backwards (previous record at %s)",
                    r.at.to_string().c_str(),
                    t_.records[i - 1].at.to_string().c_str()));
    switch (r.op) {
      case Op::kMutexLock:
        if (r.phase == Phase::kReturn) mutex_owner_[r.obj.id] = r.tid;
        break;
      case Op::kMutexTrylock:
        if (r.phase == Phase::kReturn && r.arg == 1)
          mutex_owner_[r.obj.id] = r.tid;
        break;
      case Op::kMutexUnlock:
        if (r.phase == Phase::kCall) check_unlock(i, r);
        break;
      case Op::kThrJoin:
        check_join(i, r);
        break;
      case Op::kSemaInit:
        if (r.phase == Phase::kCall) sema_count_[r.obj.id] = r.arg;
        break;
      case Op::kSemaPost:
        if (r.phase == Phase::kReturn) ++sema_count_[r.obj.id];
        break;
      case Op::kSemaWait:
        if (r.phase == Phase::kReturn) check_sema_take(i, r);
        break;
      case Op::kSemaTrywait:
        if (r.phase == Phase::kReturn && r.arg == 1) check_sema_take(i, r);
        break;
      case Op::kCondWait:
      case Op::kCondTimedwait:
        check_cond_wait(i, r);
        break;
      default:
        break;
    }
  }

  void check_unlock(std::size_t i, const Record& r) {
    auto it = mutex_owner_.find(r.obj.id);
    if (it == mutex_owner_.end()) {
      add(LintSeverity::kError, i,
          strprintf("thread %u unlocks mutex %u which is not held",
                    static_cast<unsigned>(r.tid),
                    static_cast<unsigned>(r.obj.id)));
      return;
    }
    if (it->second != r.tid)
      // Solaris mutexes permit this, so it replays — but a lock
      // migrating between threads without a handoff protocol is almost
      // always a recording or program bug.
      add(LintSeverity::kWarning, i,
          strprintf("thread %u unlocks mutex %u held by thread %u",
                    static_cast<unsigned>(r.tid),
                    static_cast<unsigned>(r.obj.id),
                    static_cast<unsigned>(it->second)));
    mutex_owner_.erase(it);
  }

  void check_join(std::size_t i, const Record& r) {
    if (r.phase == Phase::kReturn) {
      if (r.arg != kAnyThread) joined_.insert(static_cast<ThreadId>(r.arg));
      return;
    }
    const auto target = static_cast<ThreadId>(r.obj.id);
    if (static_cast<std::int64_t>(r.obj.id) == kAnyThread) return;
    if (target == r.tid) {
      add(LintSeverity::kError, i,
          strprintf("thread %u joins itself (guaranteed deadlock)",
                    static_cast<unsigned>(r.tid)));
      return;
    }
    if (known_threads_.find(target) == known_threads_.end()) {
      add(LintSeverity::kError, i,
          strprintf("thread %u joins unknown thread %u",
                    static_cast<unsigned>(r.tid),
                    static_cast<unsigned>(target)));
      return;
    }
    if (joined_.find(target) != joined_.end())
      add(LintSeverity::kWarning, i,
          strprintf("thread %u joins thread %u which was already joined",
                    static_cast<unsigned>(r.tid),
                    static_cast<unsigned>(target)));
  }

  void check_sema_take(std::size_t i, const Record& r) {
    std::int64_t& count = sema_count_[r.obj.id];
    if (--count < 0) {
      add(LintSeverity::kError, i,
          strprintf("semaphore %u count driven to %lld (a completed wait "
                    "with no matching post or initial count)",
                    static_cast<unsigned>(r.obj.id),
                    static_cast<long long>(count)));
      count = 0;  // re-ground so one missing post is one finding
    }
  }

  void check_cond_wait(std::size_t i, const Record& r) {
    // The library releases the mutex while the thread sleeps on the
    // condition and reacquires it before the call returns, so the owner
    // table must track both edges to stay truthful for later records.
    // Only the call record carries the mutex id; the matching return is
    // resolved from the per-thread pending map.
    if (r.phase == Phase::kReturn) {
      auto pending = cond_mutex_.find(r.tid);
      if (pending == cond_mutex_.end()) return;  // no recorded call edge
      mutex_owner_[pending->second] = r.tid;
      cond_mutex_.erase(pending);
      return;
    }
    const std::uint32_t mutex_id = static_cast<std::uint32_t>(r.arg);
    cond_mutex_[r.tid] = mutex_id;
    auto it = mutex_owner_.find(mutex_id);
    if (it == mutex_owner_.end() || it->second != r.tid)
      add(LintSeverity::kWarning, i,
          strprintf("thread %u waits on condition %u without holding "
                    "mutex %u (undefined behavior in the thread library)",
                    static_cast<unsigned>(r.tid),
                    static_cast<unsigned>(r.obj.id), mutex_id));
    if (it != mutex_owner_.end() && it->second == r.tid)
      mutex_owner_.erase(it);
  }

  const Trace& t_;
  LintReport report_;
  std::unordered_set<ThreadId> known_threads_;
  std::unordered_set<ThreadId> joined_;
  std::unordered_map<std::uint32_t, ThreadId> mutex_owner_;
  std::unordered_map<std::uint32_t, std::int64_t> sema_count_;
  /// tid -> mutex named by that thread's in-flight cond_wait call.
  std::unordered_map<ThreadId, std::uint32_t> cond_mutex_;
};

}  // namespace

std::string LintIssue::to_string() const {
  std::string out = strprintf("%s: %s (record %zu", severity_name(severity),
                              message.c_str(), record_index);
  if (!location.empty()) out += " at " + location;
  out += ")";
  return out;
}

std::string LintReport::to_string() const {
  if (clean()) return "clean\n";
  std::string out;
  for (const LintIssue& issue : issues) {
    out += issue.to_string();
    out += '\n';
  }
  out += strprintf("%zu error%s, %zu warning%s\n", errors,
                   errors == 1 ? "" : "s", warnings,
                   warnings == 1 ? "" : "s");
  return out;
}

LintReport lint(const Trace& trace) { return Linter(trace).run(); }

}  // namespace vppb::trace
