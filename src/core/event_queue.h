// Calendar (ring-buffer) event queue for the pipeline's writeback events.
//
// The pipeline schedules every event a bounded number of cycles into the
// future (the worst case is a TLB walk + L1 + L2 + DRAM chain, well under
// 256 cycles), and drains events for exactly one cycle value per call, in
// strictly increasing cycle order. A `std::map<Cycle, vector>` models that
// fine but pays a red-black-tree allocation + rebalance per simulated
// event; this queue instead indexes a fixed power-of-two array of slots by
// `cycle & mask`, so schedule/drain are O(1) with no per-event allocation
// once the slot vectors have warmed up. Events beyond the horizon (none in
// practice; kept for safety against future latency configs) spill into a
// small ordered map.
#pragma once

#include <cassert>
#include <map>
#include <utility>
#include <vector>

#include "common/types.h"

namespace reese::core {

template <typename T>
class CalendarQueue {
 public:
  /// `horizon` must be a power of two and exceed the longest schedule
  /// distance the caller ever uses (asserted in debug builds via the slot
  /// tag check below).
  explicit CalendarQueue(usize horizon = 256) : mask_(horizon - 1) {
    assert((horizon & mask_) == 0 && horizon >= 2);
    slots_.resize(horizon);
  }

  bool empty() const { return pending_ == 0 && overflow_.empty(); }

  /// Schedule `value` for cycle `when`. The caller drains cycle `now`
  /// before scheduling (the pipeline evaluates writeback before issue), so
  /// events must land strictly in the future or they would never drain.
  void schedule(Cycle when, Cycle now, T value) {
    assert(when > now);
    if (when - now <= mask_) {
      Slot& slot = slots_[when & mask_];
      if (slot.when != when) {
        // A stale tag always comes with a drained (empty) item list: the
        // caller drains every cycle, so a slot is reused only after its
        // previous occupant's cycle has passed.
        assert(slot.items.empty());
        slot.when = when;
      }
      slot.items.push_back(std::move(value));
      ++pending_;
    } else {
      overflow_[when].push_back(std::move(value));
    }
  }

  /// Move out everything scheduled for exactly `now`. Must be called for
  /// every cycle value in increasing order (the pipeline's main loop does).
  /// Returns an empty vector when nothing is due.
  std::vector<T> take(Cycle now) {
    std::vector<T> due;
    Slot& slot = slots_[now & mask_];
    if (slot.when == now && !slot.items.empty()) {
      pending_ -= slot.items.size();
      due.swap(slot.items);
      slot.items = std::move(spare_);  // hand the slot a warm vector back
      slot.items.clear();
    }
    if (!overflow_.empty() && overflow_.begin()->first <= now) {
      auto it = overflow_.begin();
      assert(it->first == now && "overflow event skipped a drain cycle");
      if (due.empty()) {
        due = std::move(it->second);
      } else {
        due.insert(due.end(), it->second.begin(), it->second.end());
      }
      overflow_.erase(it);
    }
    return due;
  }

  /// Return a drained vector so its capacity is reused by the next take().
  void recycle(std::vector<T>&& used) {
    used.clear();
    spare_ = std::move(used);
  }

 private:
  struct Slot {
    Cycle when = ~Cycle{0};
    std::vector<T> items;
  };

  std::vector<Slot> slots_;
  std::map<Cycle, std::vector<T>> overflow_;
  std::vector<T> spare_;
  usize mask_;
  usize pending_ = 0;
};

}  // namespace reese::core
