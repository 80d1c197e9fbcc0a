#include "mem/cache.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace alpu::mem {

Cache::Cache(const CacheConfig& config)
    : config_(config),
      sets_(config.num_sets()),
      pow2_geometry_(std::has_single_bit(config.line_bytes) &&
                     std::has_single_bit(sets_)),
      line_shift_(static_cast<unsigned>(std::countr_zero(config.line_bytes))),
      lines_(std::make_unique_for_overwrite<Addr[]>(sets_ * config.ways)),
      prev_(std::make_unique_for_overwrite<std::uint16_t[]>(
          sets_ * (config.ways + 1))),
      next_(std::make_unique_for_overwrite<std::uint16_t[]>(
          sets_ * (config.ways + 1))),
      dirty_(std::make_unique_for_overwrite<std::uint8_t[]>(
          sets_ * (config.ways + 1))),
      fill_(sets_, kUntouched) {
  ALPU_ASSERT(config.size_bytes % config.line_bytes == 0,
              "cache size must be a whole number of lines");
  ALPU_ASSERT(config.num_lines() % config.ways == 0,
              "cache lines must fill its ways evenly");
  ALPU_ASSERT(sets_ > 0, "cache has zero sets");
  ALPU_ASSERT(config.ways < std::numeric_limits<std::uint16_t>::max(),
              "cache slots must fit the 16-bit links");
}

void Cache::flush() {
  std::fill(fill_.begin(), fill_.end(), kUntouched);
  pages_.clear();
  memo_key_ = kNoPage;
  memo_page_ = nullptr;
}

void Cache::set_up(std::size_t set) {
  const std::size_t base = set * (config_.ways + 1);
  std::fill_n(&prev_[base], config_.ways + 1, 0);
  std::fill_n(&next_[base], config_.ways + 1, 0);
  fill_[set] = 0;
}

void Cache::remember(Addr key) {
  std::uint16_t* page = find_page(key);
  if (page == nullptr) {
    pages_.push_back(Page{key, std::make_unique<std::uint16_t[]>(kPageLines)});
    page = pages_.back().slots.get();  // value-initialised: zeroed
  }
  memo_key_ = key;
  memo_page_ = page;
}

std::uint16_t* Cache::find_page(Addr key) const {
  for (const Page& p : pages_) {
    if (p.key == key) return p.slots.get();
  }
  return nullptr;
}

bool Cache::set_consistent(std::size_t set) const {
  const std::size_t base = set * (config_.ways + 1);
  const std::size_t fill = fill_[set];
  // From the sentinel, `next` must pass `fill` slots in [1, fill], each
  // linking back and holding a line of this set that the index maps to
  // it, and return.
  std::size_t slot = 0;
  for (std::size_t step = 0; step <= fill; ++step) {
    const std::size_t next = next_[base + slot];
    if (prev_[base + next] != slot || (next == 0) != (step == fill) ||
        next > fill) {
      return false;
    }
    if (next != 0) {
      const Addr line = lines_[set * config_.ways + next - 1];
      if (set_of(line) != set || slot_of(line) != next) return false;
    }
    slot = next;
  }
  return fill <= config_.ways;
}

bool Cache::check_invariants() const {
  std::size_t filled = 0;
  for (std::size_t set = 0; set < sets_; ++set) {
    if (fill_[set] == kUntouched) continue;
    if (!set_consistent(set)) return false;
    filled += fill_[set];
  }
  // Each filled slot's line maps to it, so the pages hold no other entry
  // exactly when their nonzero entries number the filled slots.
  std::size_t entries = 0;
  for (const Page& p : pages_) {
    entries += static_cast<std::size_t>(
        std::count_if(p.slots.get(), p.slots.get() + kPageLines,
                      [](std::uint16_t s) { return s != 0; }));
  }
  return entries == filled &&
         (memo_key_ == kNoPage ? memo_page_ == nullptr
                               : find_page(memo_key_) == memo_page_);
}

}  // namespace alpu::mem
