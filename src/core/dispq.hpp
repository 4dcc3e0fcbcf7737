// Solaris-style dispatch queues for the engine's two scheduling levels.
//
// Solaris dispatches kernel threads through `dispq`: an array of FIFO
// run queues, one per global priority, plus a bitmap of non-empty
// levels (disp_qactmap).  Insertion appends to the level's queue and
// sets its bit; picking the next thread finds the highest set bit and
// takes that queue's head — both O(1) in the number of queued threads.
// The engine reproduces that shape at the library level (unbound
// threads waiting for an LWP, bucketed by user priority) and at the
// kernel level (LWPs waiting for a CPU, bucketed by user priority ×
// TS level), replacing the sort-per-step scheduler it started with.
//
// Both levels keep their queue across decisions and delete lazily: the
// owner stamps every entry with an epoch; bumping the epoch outside the
// queue turns the entry into a husk, and `invalidate()` keeps the
// per-bucket live count (and the bitmap) in step.  Husks are discarded
// when a later `scan` or `top` reaches them, wholesale when a bucket
// runs out of live entries, and by a compaction once they outnumber
// a bucket's live entries — so a bucket never holds more than about
// twice its live entries.
//
//  * The library level walks its queue with `scan`, skipping entries
//    that are queued but not yet eligible.
//  * The kernel level queues only eligible LWPs, so `top()` is the next
//    LWP to dispatch and `pop_top()` takes it.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace vppb::core {

/// Bitmap of non-empty priority levels (Solaris' disp_qactmap).
class PrioBitmap {
 public:
  void configure(int levels) {
    words_.assign(static_cast<std::size_t>((levels + 63) / 64), 0);
  }
  void set(int level) {
    words_[static_cast<std::size_t>(level >> 6)] |= 1ull << (level & 63);
  }
  void clear(int level) {
    words_[static_cast<std::size_t>(level >> 6)] &= ~(1ull << (level & 63));
  }

  /// Highest set level, or -1 when empty.
  int highest() const {
    for (int w = static_cast<int>(words_.size()) - 1; w >= 0; --w) {
      const std::uint64_t word = words_[static_cast<std::size_t>(w)];
      if (word != 0) return (w << 6) + 63 - std::countl_zero(word);
    }
    return -1;
  }

  /// Highest set level strictly below `level`, or -1.
  int highest_below(int level) const {
    if (level <= 0) return -1;
    int w = (level - 1) >> 6;
    const std::uint64_t mask = ~0ull >> (63 - ((level - 1) & 63));
    std::uint64_t word = words_[static_cast<std::size_t>(w)] & mask;
    for (;;) {
      if (word != 0) return (w << 6) + 63 - std::countl_zero(word);
      if (--w < 0) return -1;
      word = words_[static_cast<std::size_t>(w)];
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

/// One dispatch-queue array: per-level buckets ordered by an explicit
/// sequence key, plus the bitmap of non-empty levels.  Higher level =
/// dispatched first; within a level, smaller key first.
template <typename Item, typename Key = std::uint64_t>
class DispQueue {
 public:
  struct Entry {
    Item item;
    Key seq;
    std::uint32_t epoch;  ///< owner's stamp; mismatch = lazily deleted
  };

  enum class Visit : std::uint8_t {
    kSkip,  ///< live but not eligible right now: leave it queued
    kDrop,  ///< stale husk (already invalidate()d): discard physically
    kTake,  ///< pop this entry and stop the scan
  };

  /// Sizes the queue for `levels` buckets and empties it.  Re-configuring
  /// to the same level count (a reused engine workspace running the same
  /// program again) recycles the bucket storage instead of freeing it.
  void configure(int levels) {
    if (static_cast<std::size_t>(levels) == buckets_.size()) {
      clear();
      return;
    }
    buckets_.clear();
    buckets_.resize(static_cast<std::size_t>(levels));
    bits_.configure(levels);
    touched_.clear();
    live_total_ = 0;
    reads_ = 0;
  }

  int levels() const { return static_cast<int>(buckets_.size()); }

  /// Queue `item` at `level`, ordered by `seq` within the bucket.  The
  /// common case (a key no smaller than the bucket's last) appends;
  /// re-queues with an older key binary-search their position, so
  /// bucket order is always by key regardless of arrival order.
  void insert(int level, Item item, Key seq, std::uint32_t epoch) {
    Bucket& b = buckets_[static_cast<std::size_t>(level)];
    if (!b.touched) {
      b.touched = true;
      touched_.push_back(level);
    }
    if (b.live == 0) bits_.set(level);
    ++b.live;
    ++live_total_;
    if (b.q.size() > b.head) {
      ++reads_;
      if (b.q.back().seq > seq) {
        const auto first = b.q.begin() + static_cast<std::ptrdiff_t>(b.head);
        const auto pos = std::upper_bound(
            first, b.q.end() - 1, seq, [this](const Key& k, const Entry& e) {
              ++reads_;
              return k < e.seq;
            });
        b.q.insert(pos, Entry{item, seq, epoch});
        return;
      }
    }
    b.q.push_back(Entry{item, seq, epoch});
  }

  /// The owner removed an entry of `level` by bumping its epoch; keep
  /// the live count and bitmap consistent.  `live(entry)` tells live
  /// entries from husks, for the compaction that keeps husks from
  /// piling up behind a bucket's head.
  template <typename F>
  void invalidate(int level, F&& live) {
    Bucket& b = buckets_[static_cast<std::size_t>(level)];
    --b.live;
    --live_total_;
    if (b.live == 0) {
      reset_bucket(b, level);
      return;
    }
    if (b.q.size() - b.head > 2 * b.live + 8) {
      reads_ += b.q.size() - b.head;
      b.q.erase(b.q.begin(), b.q.begin() + static_cast<std::ptrdiff_t>(b.head));
      b.head = 0;
      std::erase_if(b.q, [&live](const Entry& e) { return !live(e); });
    }
  }

  /// Walks entries from the strongest level down, calling
  /// `classify(item, epoch)` on each; returns the first kTake'n item,
  /// or Item{} when every entry was skipped or dropped.  The caller
  /// updates its own bookkeeping (epoch bump etc.) for a taken item.
  template <typename F>
  Item scan(F&& classify) {
    for (int level = bits_.highest(); level >= 0;
         level = bits_.highest_below(level)) {
      Bucket& b = buckets_[static_cast<std::size_t>(level)];
      for (std::size_t i = b.head; i < b.q.size(); ++i) {
        const Visit v = classify(b.q[i].item, b.q[i].epoch);
        if (v == Visit::kSkip) continue;
        if (v == Visit::kDrop) {
          // live was already decremented by invalidate(); only the
          // husk remains.  Trim it when it sits at the head.
          if (i == b.head) ++b.head;
          continue;
        }
        Item out = b.q[i].item;
        if (i == b.head) ++b.head;
        take(b, level);
        return out;
      }
    }
    return Item{};
  }

  /// Best live entry, or nullptr when none is queued.  Husks at the
  /// head of the strongest bucket (`live(entry)` false) are dropped on
  /// the way; a set bit guarantees the bucket still holds a live one.
  template <typename F>
  const Entry* top(F&& live) {
    if (live_total_ == 0) return nullptr;
    const int level = bits_.highest();
    Bucket& b = buckets_[static_cast<std::size_t>(level)];
    for (;;) {
      ++reads_;
      if (live(b.q[b.head])) return &b.q[b.head];
      ++b.head;
    }
  }

  /// Pops the entry the last `top()` returned; `level` is its bucket.
  void pop_top(int level) {
    Bucket& b = buckets_[static_cast<std::size_t>(level)];
    ++b.head;
    take(b, level);
  }

  /// Empties the queue in O(buckets touched since the last clear).
  void clear() {
    for (const int level : touched_) {
      Bucket& b = buckets_[static_cast<std::size_t>(level)];
      b.q.clear();
      b.head = 0;
      b.live = 0;
      b.touched = false;
      bits_.clear(level);
    }
    touched_.clear();
    live_total_ = 0;
    reads_ = 0;
  }

  /// Entries inserted and not yet taken or invalidated, across all
  /// buckets.  Zero means a scan cannot take anything, letting callers
  /// skip it in O(1).
  std::size_t live() const { return live_total_; }

  /// Entries read by insert, top and compaction since the last clear:
  /// the queue's own measure of the work it has done.
  std::uint64_t reads() const { return reads_; }

 private:
  struct Bucket {
    std::vector<Entry> q;
    std::size_t head = 0;   ///< physical entries before this are consumed
    std::size_t live = 0;   ///< entries not lazily deleted
    bool touched = false;   ///< on the touched_ list
  };

  void take(Bucket& b, int level) {
    --b.live;
    --live_total_;
    if (b.live == 0) {
      reset_bucket(b, level);
    } else if (b.head >= 64 && 2 * b.head >= b.q.size()) {
      // Consumed entries fill half the bucket: drop them, so a bucket
      // that never runs empty still holds O(live) entries.
      b.q.erase(b.q.begin(), b.q.begin() + static_cast<std::ptrdiff_t>(b.head));
      b.head = 0;
    }
  }

  void reset_bucket(Bucket& b, int level) {
    // No live entries: whatever is physically left is stale husks, so
    // the storage can be recycled wholesale.
    b.q.clear();
    b.head = 0;
    bits_.clear(level);
  }

  std::vector<Bucket> buckets_;
  PrioBitmap bits_;
  std::vector<int> touched_;
  std::size_t live_total_ = 0;
  std::uint64_t reads_ = 0;
};

}  // namespace vppb::core
