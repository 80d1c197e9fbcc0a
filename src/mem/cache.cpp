#include "mem/cache.hpp"

#include <algorithm>
#include <bit>
#include <limits>

namespace alpu::mem {

Cache::Cache(const CacheConfig& config)
    : config_(config),
      sets_(config.num_sets()),
      buckets_(std::bit_ceil(2 * config.ways)),
      hash_shift_(64 - static_cast<unsigned>(std::countr_zero(buckets_))),
      pow2_geometry_(std::has_single_bit(config.line_bytes) &&
                     std::has_single_bit(sets_)),
      line_shift_(static_cast<unsigned>(std::countr_zero(config.line_bytes))),
      lines_(sets_ * config.ways),
      prev_(sets_ * (config.ways + 1)),
      next_(sets_ * (config.ways + 1)),
      dirty_(sets_ * (config.ways + 1)),
      index_(sets_ * buckets_),
      fill_(sets_) {
  ALPU_ASSERT(config.size_bytes % config.line_bytes == 0,
              "cache size must be a whole number of lines");
  ALPU_ASSERT(config.num_lines() % config.ways == 0,
              "cache lines must fill its ways evenly");
  ALPU_ASSERT(sets_ > 0, "cache has zero sets");
  ALPU_ASSERT(config.ways < std::numeric_limits<std::uint16_t>::max(),
              "cache slots must fit the 16-bit links");
}

void Cache::flush() {
  // A slot's line and dirty bit are rewritten when it fills.
  std::fill(prev_.begin(), prev_.end(), 0);
  std::fill(next_.begin(), next_.end(), 0);
  std::fill(index_.begin(), index_.end(), 0);
  std::fill(fill_.begin(), fill_.end(), 0);
}

void Cache::erase_bucket(std::size_t set, std::size_t pos) {
  const std::size_t first = set * buckets_;
  const std::size_t mask = buckets_ - 1;
  std::size_t hole = pos - first;
  // The index is at most half full, so every probe chain ends.
  for (std::size_t i = (hole + 1) & mask; index_[first + i] != 0;
       i = (i + 1) & mask) {
    const std::size_t home =
        home_of(lines_[set * config_.ways + index_[first + i] - 1]);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      index_[first + hole] = index_[first + i];
      hole = i;
    }
  }
  index_[first + hole] = 0;
}

bool Cache::set_consistent(std::size_t set) const {
  const std::size_t base = set * (config_.ways + 1);
  const std::size_t fill = fill_[set];
  // From the sentinel, `next` must pass `fill` slots in [1, fill], each
  // linking back and found by the index under its own line, and return.
  std::size_t slot = 0;
  for (std::size_t step = 0; step <= fill; ++step) {
    const std::size_t next = next_[base + slot];
    if (prev_[base + next] != slot || (next == 0) != (step == fill) ||
        next > fill ||
        (next != 0 &&
         index_[find_bucket(lines_[set * config_.ways + next - 1])] != next)) {
      return false;
    }
    slot = next;
  }
  const std::uint16_t* bucket = &index_[set * buckets_];
  const auto empty = std::count(bucket, bucket + buckets_, 0);
  return fill <= config_.ways && empty + fill == buckets_;
}

}  // namespace alpu::mem
