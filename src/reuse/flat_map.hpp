// Open-addressing hash map from line number to 64-bit payload.
//
// The reuse-distance engines perform one lookup-or-insert per memory
// reference — hundreds of millions per experiment — which makes
// std::unordered_map's node allocations the bottleneck. A simple
// linear-probing table with a reserved empty key suffices; erase uses
// tombstone-free backward-shift deletion (the capacity stack evicts a
// line once it falls past the largest priced capacity), so probe chains
// never grow stale markers and lookups stay one linear scan.
#pragma once

#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace spmvcache {

/// Maps uint64 keys (!= kEmptyKey) to uint64 values.
class FlatMap64 {
public:
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

    explicit FlatMap64(std::size_t capacity_hint = 64) { rehash(roundup(capacity_hint * 2)); }

    /// Returns a pointer to the value for `key`, or nullptr if absent.
    [[nodiscard]] std::uint64_t* find(std::uint64_t key) noexcept {
        std::size_t i = probe_start(key);
        for (;;) {
            if (keys_[i] == key) return &values_[i];
            if (keys_[i] == kEmptyKey) return nullptr;
            i = (i + 1) & mask_;
        }
    }

    [[nodiscard]] const std::uint64_t* find(std::uint64_t key) const noexcept {
        return const_cast<FlatMap64*>(this)->find(key);
    }

    /// Inserts or overwrites. Pre: key != kEmptyKey.
    void put(std::uint64_t key, std::uint64_t value) {
        bool inserted = false;
        *find_or_insert(key, inserted) = value;
    }

    /// Single-probe lookup-or-insert: returns the value slot for `key`,
    /// creating a zero-valued entry when absent (`inserted` reports which).
    /// One probe sequence replaces the engines' former find-then-put pair;
    /// the returned pointer stays valid until the next insert. Pre:
    /// key != kEmptyKey.
    [[nodiscard]] std::uint64_t* find_or_insert(std::uint64_t key,
                                                bool& inserted) {
        SPMV_EXPECTS(key != kEmptyKey);
        if ((size_ + 1) * 10 >= keys_.size() * 7) rehash(keys_.size() * 2);
        std::size_t i = probe_start(key);
        while (keys_[i] != kEmptyKey && keys_[i] != key) i = (i + 1) & mask_;
        inserted = keys_[i] == kEmptyKey;
        if (inserted) {
            keys_[i] = key;
            values_[i] = 0;
            ++size_;
        }
        return &values_[i];
    }

    /// Removes `key` if present; returns whether an entry was removed.
    /// Backward-shift deletion: instead of leaving a tombstone, every
    /// entry in the probe cluster after the vacated slot is moved back
    /// when (and only when) the hole lies inside its own probe range, so
    /// the invariant "a lookup walks from probe_start to the first empty
    /// slot" is restored exactly and the table never degrades.
    bool erase(std::uint64_t key) noexcept {
        std::size_t hole = probe_start(key);
        for (;;) {
            if (keys_[hole] == kEmptyKey) return false;
            if (keys_[hole] == key) break;
            hole = (hole + 1) & mask_;
        }
        std::size_t i = (hole + 1) & mask_;
        while (keys_[i] != kEmptyKey) {
            // Cyclic distances from the entry's ideal slot: the entry at i
            // may fill the hole iff the hole sits between its probe start
            // and its current position.
            const std::size_t ideal = probe_start(keys_[i]);
            if (((i - ideal) & mask_) >= ((i - hole) & mask_)) {
                keys_[hole] = keys_[i];
                values_[hole] = values_[i];
                hole = i;
            }
            i = (i + 1) & mask_;
        }
        keys_[hole] = kEmptyKey;
        --size_;
        return true;
    }

    /// Hints the hardware to fetch `key`'s probe-start slot. Issued a few
    /// elements ahead inside the engines' access_batch loops, it overlaps
    /// the (random, usually cache-missing) probe loads of upcoming keys
    /// with the current key's stack bookkeeping.
    void prefetch(std::uint64_t key) const noexcept {
        const std::size_t i = probe_start(key);
#if defined(__GNUC__) || defined(__clang__)
        __builtin_prefetch(&keys_[i]);
        __builtin_prefetch(&values_[i]);
#else
        (void)i;
#endif
    }

    [[nodiscard]] std::size_t size() const noexcept { return size_; }

    void clear() noexcept {
        std::fill(keys_.begin(), keys_.end(), kEmptyKey);
        size_ = 0;
    }

    /// Calls fn(key, value) for every entry (arbitrary order).
    template <class Fn>
    void for_each(Fn&& fn) const {
        for (std::size_t i = 0; i < keys_.size(); ++i)
            if (keys_[i] != kEmptyKey) fn(keys_[i], values_[i]);
    }

private:
    static std::size_t roundup(std::size_t n) {
        std::size_t p = 64;
        while (p < n) p *= 2;
        return p;
    }

    [[nodiscard]] std::size_t probe_start(std::uint64_t key) const noexcept {
        // Fibonacci hashing spreads the (often sequential) line numbers.
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32) &
               mask_;
    }

    void rehash(std::size_t new_capacity) {
        std::vector<std::uint64_t> old_keys = std::move(keys_);
        std::vector<std::uint64_t> old_values = std::move(values_);
        keys_.assign(new_capacity, kEmptyKey);
        values_.assign(new_capacity, 0);
        mask_ = new_capacity - 1;
        size_ = 0;
        for (std::size_t i = 0; i < old_keys.size(); ++i) {
            if (old_keys[i] == kEmptyKey) continue;
            std::size_t j = probe_start(old_keys[i]);
            while (keys_[j] != kEmptyKey) j = (j + 1) & mask_;
            keys_[j] = old_keys[i];
            values_[j] = old_values[i];
            ++size_;
        }
    }

    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> values_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

}  // namespace spmvcache
