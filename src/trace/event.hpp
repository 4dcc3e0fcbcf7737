// The event taxonomy of the Recorder.
//
// Every probed thread-library call produces two records, one when the
// call enters the library (kCall) and one when it returns to user code
// (kReturn) — the paper's fig. 2 shows both (e.g. "thr_join thr_a" and
// later "ok thr_join thr_a").  The CPU demand of a thread between two
// of its events is therefore the gap between a kReturn and the next
// kCall, which is exactly what the Simulator replays.
#pragma once

#include <cstdint>
#include <string_view>

#include "util/time.hpp"
#include "ult/wait_queue.hpp"  // ThreadId

namespace vppb::trace {

using ult::ThreadId;

/// Which thread-library primitive an event belongs to.
enum class Op : std::uint8_t {
  kStartCollect,  ///< first record of every log
  kEndCollect,    ///< last record of every log
  kThrCreate,     ///< obj = new thread id, arg = create flags
  kThrExit,
  kThrJoin,       ///< obj = target id (kAnyThread for wildcard); return arg = departed id
  kThrYield,
  kThrSetPrio,    ///< obj = target thread, arg = new priority
  kThrSetConcurrency,  ///< arg = requested LWP count (replayed as a no-op knob)
  kThrSuspend,    ///< obj = target thread
  kThrContinue,   ///< obj = target thread
  kMutexInit,
  kMutexLock,
  kMutexTrylock,  ///< return arg: 1 = acquired, 0 = busy
  kMutexUnlock,
  kMutexDestroy,
  kSemaInit,      ///< arg = initial count
  kSemaWait,
  kSemaTrywait,   ///< return arg: 1 = acquired, 0 = busy
  kSemaPost,
  kSemaDestroy,
  kCondInit,
  kCondWait,      ///< obj = condvar, arg = mutex id
  kCondTimedwait, ///< obj = condvar, arg = mutex id; return arg: 1 =
                  ///< woken, 0 = timed out
  kCondSignal,
  kCondBroadcast,
  kCondDestroy,
  kRwInit,
  kRwRdlock,
  kRwTryRdlock,   ///< return arg: 1 = acquired, 0 = busy
  kRwWrlock,
  kRwTryWrlock,   ///< return arg: 1 = acquired, 0 = busy
  kRwUnlock,
  kRwDestroy,
  kUserMark,      ///< extension: application phase markers for the Visualizer
  kIoWait,        ///< extension (paper §6 future work): blocking I/O of a
                  ///< recorded latency; obj = device, replayed as a delay
};

/// Kind of object an event refers to.
enum class ObjKind : std::uint8_t {
  kNone,
  kThread,
  kMutex,
  kSema,
  kCond,
  kRwlock,
  kMark,
  kIo,  ///< an I/O device/channel (extension)
};

/// Call/return phase of a record.
enum class Phase : std::uint8_t { kCall, kReturn };

/// Wildcard target for thr_join(0, ...).
constexpr std::int64_t kAnyThread = 0;

/// Object identity: kind + per-kind sequential id assigned at init time.
struct ObjectRef {
  ObjKind kind = ObjKind::kNone;
  std::uint32_t id = 0;

  friend bool operator==(const ObjectRef&, const ObjectRef&) = default;
};

/// One record in the log.
struct Record {
  SimTime at;               ///< timestamp (1 ns resolution internally)
  ThreadId tid = 0;         ///< calling thread
  Phase phase = Phase::kCall;
  Op op = Op::kStartCollect;
  ObjectRef obj;            ///< primary object (sync object or thread)
  std::int64_t arg = 0;     ///< op-specific (see Op comments)
  std::int64_t arg2 = 0;    ///< secondary; the recorder writes 0 (a cond
                            ///< wait's mutex is in `arg`)
  std::uint32_t loc = 0;    ///< index into the trace's source-location table
};

/// Mnemonic used in the text log ("thr_create", "mtx_lock", ...).
std::string_view op_name(Op op);

/// Inverse of op_name; returns false if unknown.
bool op_from_name(std::string_view name, Op& out);

std::string_view obj_kind_name(ObjKind k);
bool obj_kind_from_name(std::string_view name, ObjKind& out);

/// True for operations that may block the caller (their kReturn record
/// can be far from the kCall record).
bool op_may_block(Op op);

/// The object kind an op operates on.
ObjKind op_obj_kind(Op op);

/// True for try-operations, which the Simulator replays by outcome.
bool op_is_try(Op op);

/// True for ops logged as one kCall record that no kReturn ever closes:
/// the collection markers, user marks, and thr_exit (the thread is gone).
constexpr bool op_is_single(Op op) {
  return op == Op::kThrExit || op == Op::kStartCollect ||
         op == Op::kEndCollect || op == Op::kUserMark;
}

}  // namespace vppb::trace
