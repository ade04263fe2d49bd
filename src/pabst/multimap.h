// Pivot multi-map (Theorem 2.2 / the T_pivot structure of Algorithms 2–3).
//
// Stores (key, value) pairs where many values may share a key; backed by a
// PA-BST over the composite (key, value) ordering, so a key's bucket is a
// contiguous key-range of the underlying map. Supports batch insertion of
// pairs and batch *extraction* of whole buckets — exactly the access
// pattern of the wake-up strategy: when the objects in the current frontier
// finish, all pairs pivoted on them are retrieved (and never needed again).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <variant>
#include <vector>

#include "pabst/augmented_map.h"
#include "parallel/sort.h"

namespace pp {

template <typename K, typename V>
class pivot_multimap {
 public:
  struct pair_t {
    K key;
    V val;
    friend bool operator<(const pair_t& a, const pair_t& b) {
      if (a.key != b.key) return a.key < b.key;
      return a.val < b.val;
    }
    friend bool operator==(const pair_t& a, const pair_t& b) {
      return a.key == b.key && a.val == b.val;
    }
  };

  pivot_multimap() = default;

  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

  // Insert a batch of pairs (need not be sorted; (key,val) pairs must be
  // unique among themselves and against the current contents).
  void multi_insert(std::vector<pair_t> pairs) {
    if (pairs.empty()) return;
    sort_inplace(std::span<pair_t>(pairs));
    auto entries = tabulate<typename inner_map::entry_t>(
        pairs.size(), [&](size_t i) { return typename inner_map::entry_t{pairs[i], {}}; });
    map_.multi_insert(std::span<const typename inner_map::entry_t>(entries));
  }

  void insert(const K& k, const V& v) { map_.insert(pair_t{k, v}, {}); }

  // Remove and return all values bucketed under the given keys
  // (concatenated in (key, value) order). Keys must be sorted and unique.
  std::vector<V> extract_buckets(std::span<const K> sorted_keys) {
    if (sorted_keys.empty()) return {};
    using range_t = typename inner_map::key_range;
    auto ranges = tabulate<range_t>(sorted_keys.size(), [&](size_t i) {
      return range_t{pair_t{sorted_keys[i], min_v()}, pair_t{sorted_keys[i], max_v()}};
    });
    auto groups = map_.multi_extract_ranges(std::span<const range_t>(ranges));
    // Concatenate group values.
    std::vector<size_t> offsets(groups.size() + 1, 0);
    for (size_t i = 0; i < groups.size(); ++i) offsets[i + 1] = offsets[i] + groups[i].size();
    std::vector<V> out(offsets.back());
    parallel_for(0, groups.size(), [&](size_t g) {
      for (size_t j = 0; j < groups[g].size(); ++j)
        out[offsets[g] + j] = groups[g][j].key.val;
    }, detail::grain_for_cost(out.size() / groups.size()));  // cost: the average group
    return out;
  }

  // All values for one key, without removal (mainly for tests).
  std::vector<V> find_bucket(const K& k) const {
    std::vector<V> out;
    map_.for_each([&](const pair_t& p, const auto&) {
      if (p.key == k) out.push_back(p.val);
    });
    return out;
  }

  bool check_invariants() const { return map_.check_invariants(); }

 private:
  static V min_v() { return std::numeric_limits<V>::lowest(); }
  static V max_v() { return std::numeric_limits<V>::max(); }

  using inner_map = augmented_map<map_entry<pair_t, std::monostate>>;
  inner_map map_;
};

}  // namespace pp
