#include "trace/event.hpp"

#include <array>
#include <utility>

namespace vppb::trace {
namespace {

struct OpInfo {
  Op op;
  std::string_view name;
  ObjKind kind;
  bool may_block;
  bool is_try;
};

constexpr std::array<OpInfo, 35> kOps{{
    {Op::kStartCollect, "start_collect", ObjKind::kNone, false, false},
    {Op::kEndCollect, "end_collect", ObjKind::kNone, false, false},
    {Op::kThrCreate, "thr_create", ObjKind::kThread, false, false},
    {Op::kThrExit, "thr_exit", ObjKind::kThread, false, false},
    {Op::kThrJoin, "thr_join", ObjKind::kThread, true, false},
    {Op::kThrYield, "thr_yield", ObjKind::kNone, false, false},
    {Op::kThrSetPrio, "thr_setprio", ObjKind::kThread, false, false},
    {Op::kThrSetConcurrency, "thr_setconcurrency", ObjKind::kNone, false, false},
    {Op::kThrSuspend, "thr_suspend", ObjKind::kThread, false, false},
    {Op::kThrContinue, "thr_continue", ObjKind::kThread, false, false},
    {Op::kMutexInit, "mtx_init", ObjKind::kMutex, false, false},
    {Op::kMutexLock, "mtx_lock", ObjKind::kMutex, true, false},
    {Op::kMutexTrylock, "mtx_trylock", ObjKind::kMutex, false, true},
    {Op::kMutexUnlock, "mtx_unlock", ObjKind::kMutex, false, false},
    {Op::kMutexDestroy, "mtx_destroy", ObjKind::kMutex, false, false},
    {Op::kSemaInit, "sema_init", ObjKind::kSema, false, false},
    {Op::kSemaWait, "sema_wait", ObjKind::kSema, true, false},
    {Op::kSemaTrywait, "sema_trywait", ObjKind::kSema, false, true},
    {Op::kSemaPost, "sema_post", ObjKind::kSema, false, false},
    {Op::kSemaDestroy, "sema_destroy", ObjKind::kSema, false, false},
    {Op::kCondInit, "cond_init", ObjKind::kCond, false, false},
    {Op::kCondWait, "cond_wait", ObjKind::kCond, true, false},
    {Op::kCondTimedwait, "cond_timedwait", ObjKind::kCond, true, false},
    {Op::kCondSignal, "cond_signal", ObjKind::kCond, false, false},
    {Op::kCondBroadcast, "cond_broadcast", ObjKind::kCond, false, false},
    {Op::kCondDestroy, "cond_destroy", ObjKind::kCond, false, false},
    {Op::kRwInit, "rw_init", ObjKind::kRwlock, false, false},
    {Op::kRwRdlock, "rw_rdlock", ObjKind::kRwlock, true, false},
    {Op::kRwTryRdlock, "rw_tryrdlock", ObjKind::kRwlock, false, true},
    {Op::kRwWrlock, "rw_wrlock", ObjKind::kRwlock, true, false},
    {Op::kRwTryWrlock, "rw_trywrlock", ObjKind::kRwlock, false, true},
    {Op::kRwUnlock, "rw_unlock", ObjKind::kRwlock, false, false},
    {Op::kRwDestroy, "rw_destroy", ObjKind::kRwlock, false, false},
    {Op::kUserMark, "user_mark", ObjKind::kMark, false, false},
    {Op::kIoWait, "io_wait", ObjKind::kIo, true, false},
}};

const OpInfo& info(Op op) {
  for (const auto& i : kOps) {
    if (i.op == op) return i;
  }
  return kOps[0];
}

// Name -> position lookup without comparing down a list: an
// open-addressing table from an FNV-1a hash of each name to its
// position, built at compile time, so a lookup hashes once and compares
// one name unless two names share a slot.
template <std::size_t N>
struct NameTable {
  static constexpr std::size_t kSlots = 128;
  static_assert(2 * N < kSlots, "keep the table at most half full");
  std::array<std::string_view, N> names;
  std::array<std::uint8_t, kSlots> slots{};  ///< position + 1; 0 = empty

  constexpr explicit NameTable(const std::array<std::string_view, N>& n)
      : names(n) {
    for (std::size_t i = 0; i < N; ++i) {
      std::size_t s = home(names[i]);
      while (slots[s] != 0) s = (s + 1) % kSlots;
      slots[s] = static_cast<std::uint8_t>(i + 1);
    }
  }

  /// Position of `name`, or -1.
  int find(std::string_view name) const {
    for (std::size_t s = home(name);; s = (s + 1) % kSlots) {
      if (slots[s] == 0) return -1;
      if (names[slots[s] - 1u] == name) return slots[s] - 1;
    }
  }

  static constexpr std::size_t home(std::string_view name) {
    std::uint32_t h = 2166136261u;
    for (const char c : name)
      h = (h ^ static_cast<std::uint8_t>(c)) * 16777619u;
    return h % kSlots;
  }
};

constexpr NameTable<kOps.size()> kOpNames{[] {
  std::array<std::string_view, kOps.size()> names{};
  for (std::size_t i = 0; i < names.size(); ++i) names[i] = kOps[i].name;
  return names;
}()};

constexpr NameTable<8> kKindNames{{"none", "thread", "mutex", "sema", "cond",
                                   "rwlock", "mark", "io"}};

}  // namespace

std::string_view op_name(Op op) { return info(op).name; }

bool op_from_name(std::string_view name, Op& out) {
  const int i = kOpNames.find(name);
  if (i < 0) return false;
  out = kOps[static_cast<std::size_t>(i)].op;
  return true;
}

std::string_view obj_kind_name(ObjKind k) {
  const auto i = static_cast<std::size_t>(k);
  return i < kKindNames.names.size() ? kKindNames.names[i] : "?";
}

bool obj_kind_from_name(std::string_view name, ObjKind& out) {
  const int i = kKindNames.find(name);
  if (i < 0) return false;
  out = static_cast<ObjKind>(i);
  return true;
}

bool op_may_block(Op op) { return info(op).may_block; }
ObjKind op_obj_kind(Op op) { return info(op).kind; }
bool op_is_try(Op op) { return info(op).is_try; }

}  // namespace vppb::trace
