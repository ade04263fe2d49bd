// PA-BST: parallel augmented balanced binary search tree (Sec. 2 and
// Appendix A of the paper; design follows Blelloch-Ferizovic-Sun "Just
// Join for Parallel Ordered Sets" and PAM).
//
// The tree is an AVL whose primitive operation is join(L, k, R); split,
// insert, delete, union and the batch (multi_*) operations are expressed in
// terms of join and therefore inherit balance maintenance from it. Each
// node carries an augmented value: the monoid sum of aug_base(key, value)
// over its subtree, enabling O(log n) range-sum queries (Theorem 2.1, 1D).
//
// Cost bounds (n = tree size, m = batch size):
//   find / insert / remove / split / join      O(log n)
//   aug_le / aug_lt / aug_range                O(log n)
//   build (from sorted)                        O(n) work, O(log n) span
//   flatten                                    O(n) work, O(log n) span
//   multi_insert / multi_delete / multi_update O(m log n) work, O(log m log n) span
//   multi_find                                 O(m log n) work, read-only
//
// The Entry policy supplies the key order and the augmentation monoid:
//
//   struct Entry {
//     using key_t = ...; using val_t = ...; using aug_t = ...;
//     static bool comp(const key_t&, const key_t&);       // strict order
//     static aug_t aug_empty();                           // monoid identity
//     static aug_t aug_base(const key_t&, const val_t&);  // leaf value
//     static aug_t aug_combine(const aug_t&, const aug_t&);  // associative
//   };
//
// Trees own their nodes (no persistence / sharing): operations mutate and
// rebuild in place, matching how the algorithms in this library use them.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "parallel/api.h"

namespace pp {

// Batch sizes below this run serially inside tree operations.
inline constexpr size_t kTreeGrain = 512;

template <typename Entry>
class augmented_map {
 public:
  using key_t = typename Entry::key_t;
  using val_t = typename Entry::val_t;
  using aug_t = typename Entry::aug_t;
  struct entry_t {
    key_t key;
    val_t val;
  };

  augmented_map() = default;
  ~augmented_map() { destroy(root_); }
  augmented_map(const augmented_map&) = delete;
  augmented_map& operator=(const augmented_map&) = delete;
  augmented_map(augmented_map&& o) noexcept : root_(o.root_) { o.root_ = nullptr; }
  augmented_map& operator=(augmented_map&& o) noexcept {
    if (this != &o) {
      destroy(root_);
      root_ = o.root_;
      o.root_ = nullptr;
    }
    return *this;
  }

  size_t size() const { return node_size(root_); }
  bool empty() const { return root_ == nullptr; }
  int height() const { return node_height(root_); }

  // Monoid sum over the whole tree.
  aug_t aug_all() const { return root_ ? root_->aug : Entry::aug_empty(); }

  // -------------------------------------------------------------------------
  // Construction
  // -------------------------------------------------------------------------

  // Build from entries sorted by key, keys strictly increasing.
  static augmented_map from_sorted(std::span<const entry_t> es) {
    augmented_map m;
    m.root_ = build_rec(es);
    return m;
  }

  // -------------------------------------------------------------------------
  // Point operations
  // -------------------------------------------------------------------------

  const val_t* find(const key_t& k) const {
    node* t = root_;
    while (t) {
      if (Entry::comp(k, t->key)) t = t->left;
      else if (Entry::comp(t->key, k)) t = t->right;
      else return &t->val;
    }
    return nullptr;
  }

  bool contains(const key_t& k) const { return find(k) != nullptr; }

  // Insert or overwrite.
  void insert(const key_t& k, const val_t& v) {
    auto [l, m, r] = split(root_, k);
    if (m == nullptr) m = new_node(k, v);
    else m->val = v;
    root_ = join(l, m, r);
  }

  // Returns true if the key was present.
  bool remove(const key_t& k) {
    auto [l, m, r] = split(root_, k);
    root_ = join2(l, r);
    if (m) {
      free_node(m);
      return true;
    }
    return false;
  }

  std::optional<entry_t> first() const {
    node* t = root_;
    if (!t) return std::nullopt;
    while (t->left) t = t->left;
    return entry_t{t->key, t->val};
  }

  std::optional<entry_t> last() const {
    node* t = root_;
    if (!t) return std::nullopt;
    while (t->right) t = t->right;
    return entry_t{t->key, t->val};
  }

  // k-th smallest entry (0-based). O(log n).
  std::optional<entry_t> select(size_t k) const {
    node* t = root_;
    while (t) {
      size_t ls = node_size(t->left);
      if (k < ls) t = t->left;
      else if (k == ls) return entry_t{t->key, t->val};
      else {
        k -= ls + 1;
        t = t->right;
      }
    }
    return std::nullopt;
  }

  // Number of entries with key < k. O(log n).
  size_t rank_of(const key_t& k) const {
    node* t = root_;
    size_t r = 0;
    while (t) {
      if (Entry::comp(t->key, k)) {
        r += node_size(t->left) + 1;
        t = t->right;
      } else {
        t = t->left;
      }
    }
    return r;
  }

  // -------------------------------------------------------------------------
  // Split / join (tree surgery)
  // -------------------------------------------------------------------------

  // Detach and return the sub-map of keys <= k (or < k if !inclusive);
  // *this keeps the rest.
  augmented_map split_off_le(const key_t& k, bool inclusive = true) {
    auto [l, m, r] = split(root_, k);
    augmented_map out;
    if (m) {
      if (inclusive) l = join(l, m, nullptr);
      else r = join(nullptr, m, r);
    }
    out.root_ = l;
    root_ = r;
    return out;
  }

  // Append `right` (all keys must be greater than ours); consumes it.
  void concat(augmented_map&& right) {
    root_ = join2(root_, right.root_);
    right.root_ = nullptr;
  }

  // Set operations in the join framework (BFS16): O(m log(n/m + 1)) work,
  // polylog span, consuming both inputs.
  //
  // Union keeps the left value on duplicate keys.
  static augmented_map map_union(augmented_map&& a, augmented_map&& b) {
    augmented_map out;
    out.root_ = union_rec(a.root_, b.root_);
    a.root_ = b.root_ = nullptr;
    return out;
  }

  // Keys present in both; keeps a's values.
  static augmented_map map_intersection(augmented_map&& a, augmented_map&& b) {
    augmented_map out;
    out.root_ = intersect_rec(a.root_, b.root_);
    a.root_ = b.root_ = nullptr;
    return out;
  }

  // Keys of a not present in b.
  static augmented_map map_difference(augmented_map&& a, augmented_map&& b) {
    augmented_map out;
    out.root_ = difference_rec(a.root_, b.root_);
    a.root_ = b.root_ = nullptr;
    return out;
  }

  // -------------------------------------------------------------------------
  // Range-sum queries (Theorem 2.1, k = 1)
  // -------------------------------------------------------------------------

  // Monoid sum of entries with key <= k.
  aug_t aug_le(const key_t& k) const { return aug_le_rec(root_, k, /*inclusive=*/true); }
  // Monoid sum of entries with key < k.
  aug_t aug_lt(const key_t& k) const { return aug_le_rec(root_, k, /*inclusive=*/false); }
  // Monoid sum of entries with key >= k.
  aug_t aug_ge(const key_t& k) const { return aug_ge_rec(root_, k, /*inclusive=*/true); }
  // Monoid sum of entries with lo <= key <= hi.
  aug_t aug_range(const key_t& lo, const key_t& hi) const {
    if (Entry::comp(hi, lo)) return Entry::aug_empty();
    return aug_range_rec(root_, lo, hi);
  }

  // -------------------------------------------------------------------------
  // Batch operations (Theorem 2.2)
  // -------------------------------------------------------------------------

  // Entries sorted by strictly increasing key; inserts new keys, overwrites
  // existing ones.
  void multi_insert(std::span<const entry_t> es) { root_ = multi_insert_rec(root_, es); }

  // Keys sorted strictly increasing; removes those present.
  void multi_delete(std::span<const key_t> ks) { root_ = multi_delete_rec(root_, ks); }

  // Entries sorted by strictly increasing key; updates values of existing
  // keys only (missing keys are ignored).
  void multi_update(std::span<const entry_t> es) { multi_update_rec(root_, es); }

  // Keys sorted strictly increasing; out[i] = value for ks[i] if present.
  std::vector<std::optional<val_t>> multi_find(std::span<const key_t> ks) const {
    std::vector<std::optional<val_t>> out(ks.size());
    multi_find_rec(root_, ks, std::span<std::optional<val_t>>(out));
    return out;
  }

  // -------------------------------------------------------------------------
  // Flatten / iterate
  // -------------------------------------------------------------------------

  std::vector<entry_t> flatten() const {
    std::vector<entry_t> out(size());
    flatten_rec(root_, std::span<entry_t>(out));
    return out;
  }

  // Serial in-order visit: f(key, val).
  template <typename F>
  void for_each(F f) const {
    for_each_rec(root_, f);
  }

  // Validation hook for tests: checks BST order, AVL balance, sizes and
  // augmented values. O(n).
  bool check_invariants() const {
    bool ok = true;
    check_rec(root_, nullptr, nullptr, ok);
    return ok;
  }

 private:
  struct node {
    node* left;
    node* right;
    key_t key;
    val_t val;
    aug_t aug;
    uint32_t size;
    int8_t height;
  };

  node* root_ = nullptr;

  // --- node helpers ---------------------------------------------------------

  static int node_height(const node* t) { return t ? t->height : 0; }
  static size_t node_size(const node* t) { return t ? t->size : 0; }

  static node* new_node(const key_t& k, const val_t& v) {
    return new node{nullptr, nullptr, k, v, Entry::aug_base(k, v), 1, 1};
  }

  static void free_node(node* t) { delete t; }

  static void destroy(node* t) {
    if (!t) return;
    if (t->size <= kTreeGrain) {
      destroy(t->left);
      destroy(t->right);
    } else {
      par_do([&] { destroy(t->left); }, [&] { destroy(t->right); });
    }
    delete t;
  }

  // Recompute height/size/aug from children.
  static void update(node* t) {
    t->height = static_cast<int8_t>(1 + std::max(node_height(t->left), node_height(t->right)));
    t->size = static_cast<uint32_t>(1 + node_size(t->left) + node_size(t->right));
    aug_t a = Entry::aug_base(t->key, t->val);
    if (t->left) a = Entry::aug_combine(t->left->aug, a);
    if (t->right) a = Entry::aug_combine(a, t->right->aug);
    t->aug = a;
  }

  static node* rotate_left(node* t) {
    node* r = t->right;
    t->right = r->left;
    r->left = t;
    update(t);
    update(r);
    return r;
  }

  static node* rotate_right(node* t) {
    node* l = t->left;
    t->left = l->right;
    l->right = t;
    update(t);
    update(l);
    return l;
  }

  // --- join (the primitive; AVL variant of BFS16) ----------------------------

  static node* make(node* l, node* m, node* r) {
    m->left = l;
    m->right = r;
    update(m);
    return m;
  }

  static node* join_right(node* l, node* m, node* r) {
    // pre: height(l) > height(r) + 1
    if (node_height(l->right) <= node_height(r) + 1) {
      node* t = make(l->right, m, r);
      l->right = t;
      update(l);
      if (node_height(t) > node_height(l->left) + 1) {
        l->right = rotate_right(t);
        update(l);
        return rotate_left(l);
      }
      return l;
    }
    node* t = join_right(l->right, m, r);
    l->right = t;
    update(l);
    if (node_height(t) > node_height(l->left) + 1) return rotate_left(l);
    return l;
  }

  static node* join_left(node* l, node* m, node* r) {
    // pre: height(r) > height(l) + 1
    if (node_height(r->left) <= node_height(l) + 1) {
      node* t = make(l, m, r->left);
      r->left = t;
      update(r);
      if (node_height(t) > node_height(r->right) + 1) {
        r->left = rotate_left(t);
        update(r);
        return rotate_right(r);
      }
      return r;
    }
    node* t = join_left(l, m, r->left);
    r->left = t;
    update(r);
    if (node_height(t) > node_height(r->right) + 1) return rotate_right(r);
    return r;
  }

  // Join trees l (smaller keys) and r (larger keys) with middle node m.
  static node* join(node* l, node* m, node* r) {
    if (m == nullptr) return join2(l, r);
    if (node_height(l) > node_height(r) + 1) return join_right(l, m, r);
    if (node_height(r) > node_height(l) + 1) return join_left(l, m, r);
    return make(l, m, r);
  }

  // Join without a middle node.
  static node* join2(node* l, node* r) {
    if (!l) return r;
    if (!r) return l;
    node* m = detach_min(r);
    return join(l, m, r);
  }

  // Remove and return the minimum node of t (t passed by ref).
  static node* detach_min(node*& t) {
    // Iteratively splitting out the min via split would be O(log n) too;
    // simple recursive unlink + rebalance-by-join keeps the code small.
    if (t->left == nullptr) {
      node* m = t;
      t = t->right;
      m->right = nullptr;
      update(m);
      return m;
    }
    node* l = t->left;
    node* r = t->right;
    node* mid = t;
    node* m = detach_min(l);
    t = join(l, mid, r);
    return m;
  }

  // --- split -----------------------------------------------------------------

  // Returns (keys < k, node with key k or nullptr, keys > k); consumes t.
  static std::tuple<node*, node*, node*> split(node* t, const key_t& k) {
    if (!t) return {nullptr, nullptr, nullptr};
    if (Entry::comp(k, t->key)) {
      auto [l, m, r] = split(t->left, k);
      return {l, m, join(r, t, t->right)};
    }
    if (Entry::comp(t->key, k)) {
      auto [l, m, r] = split(t->right, k);
      return {join(t->left, t, l), m, r};
    }
    node* l = t->left;
    node* r = t->right;
    t->left = t->right = nullptr;
    update(t);
    return {l, t, r};
  }

  // --- build / flatten --------------------------------------------------------

  static node* build_rec(std::span<const entry_t> es) {
    if (es.empty()) return nullptr;
    size_t mid = es.size() / 2;
    node* m = new_node(es[mid].key, es[mid].val);
    if (es.size() <= kTreeGrain) {
      m->left = build_rec(es.subspan(0, mid));
      m->right = build_rec(es.subspan(mid + 1));
    } else {
      par_do([&] { m->left = build_rec(es.subspan(0, mid)); },
             [&] { m->right = build_rec(es.subspan(mid + 1)); });
    }
    update(m);
    return m;
  }

  static void flatten_rec(const node* t, std::span<entry_t> out) {
    if (!t) return;
    size_t ls = node_size(t->left);
    out[ls] = entry_t{t->key, t->val};
    if (t->size <= kTreeGrain) {
      flatten_rec(t->left, out.subspan(0, ls));
      flatten_rec(t->right, out.subspan(ls + 1));
    } else {
      par_do([&] { flatten_rec(t->left, out.subspan(0, ls)); },
             [&] { flatten_rec(t->right, out.subspan(ls + 1)); });
    }
  }

  template <typename F>
  static void for_each_rec(const node* t, F& f) {
    if (!t) return;
    for_each_rec(t->left, f);
    f(t->key, t->val);
    for_each_rec(t->right, f);
  }

  // --- range-aug queries -------------------------------------------------------

  static aug_t subtree_aug(const node* t) { return t ? t->aug : Entry::aug_empty(); }

  static aug_t aug_le_rec(const node* t, const key_t& k, bool inclusive) {
    aug_t acc = Entry::aug_empty();
    while (t) {
      bool key_gt_k = Entry::comp(k, t->key);
      bool key_eq_k = !key_gt_k && !Entry::comp(t->key, k);
      if (key_gt_k || (key_eq_k && !inclusive)) {
        t = t->left;
      } else {
        acc = Entry::aug_combine(acc, subtree_aug(t->left));
        acc = Entry::aug_combine(acc, Entry::aug_base(t->key, t->val));
        t = t->right;
      }
    }
    return acc;
  }

  static aug_t aug_ge_rec(const node* t, const key_t& k, bool inclusive) {
    aug_t acc = Entry::aug_empty();
    while (t) {
      bool key_lt_k = Entry::comp(t->key, k);
      bool key_eq_k = !key_lt_k && !Entry::comp(k, t->key);
      if (key_lt_k || (key_eq_k && !inclusive)) {
        t = t->right;
      } else {
        acc = Entry::aug_combine(Entry::aug_base(t->key, t->val), acc);
        acc = Entry::aug_combine(subtree_aug(t->right), acc);
        t = t->left;
      }
    }
    return acc;
  }

  static aug_t aug_range_rec(const node* t, const key_t& lo, const key_t& hi) {
    while (t) {
      if (Entry::comp(t->key, lo)) {
        t = t->right;
        continue;
      }
      if (Entry::comp(hi, t->key)) {
        t = t->left;
        continue;
      }
      // lo <= key <= hi: left side contributes keys >= lo, right side <= hi.
      aug_t acc = aug_ge_rec(t->left, lo, true);
      acc = Entry::aug_combine(acc, Entry::aug_base(t->key, t->val));
      acc = Entry::aug_combine(acc, aug_le_rec(t->right, hi, true));
      return acc;
    }
    return Entry::aug_empty();
  }

  // --- batch operations ---------------------------------------------------------

  static node* multi_insert_rec(node* t, std::span<const entry_t> es) {
    if (es.empty()) return t;
    if (t == nullptr) return build_rec(es);
    size_t mid = es.size() / 2;
    auto [l, m, r] = split(t, es[mid].key);
    if (m == nullptr) m = new_node(es[mid].key, es[mid].val);
    else m->val = es[mid].val;
    node *nl = nullptr, *nr = nullptr;
    if (es.size() <= kTreeGrain) {
      nl = multi_insert_rec(l, es.subspan(0, mid));
      nr = multi_insert_rec(r, es.subspan(mid + 1));
    } else {
      par_do([&, lp = l] { nl = multi_insert_rec(lp, es.subspan(0, mid)); },
             [&, rp = r] { nr = multi_insert_rec(rp, es.subspan(mid + 1)); });
    }
    // m's aug may be stale (val overwritten); join() calls update on the path.
    return join(nl, m, nr);
  }

  static node* multi_delete_rec(node* t, std::span<const key_t> ks) {
    if (ks.empty() || t == nullptr) return t;
    size_t mid = ks.size() / 2;
    auto [l, m, r] = split(t, ks[mid]);
    if (m) free_node(m);
    node *nl = nullptr, *nr = nullptr;
    if (ks.size() <= kTreeGrain) {
      nl = multi_delete_rec(l, ks.subspan(0, mid));
      nr = multi_delete_rec(r, ks.subspan(mid + 1));
    } else {
      par_do([&, lp = l] { nl = multi_delete_rec(lp, ks.subspan(0, mid)); },
             [&, rp = r] { nr = multi_delete_rec(rp, ks.subspan(mid + 1)); });
    }
    return join2(nl, nr);
  }

  // Update values in place without restructuring: partition the batch by
  // the root key and recurse; augmented values are recomputed bottom-up on
  // the visited spine only.
  static bool multi_update_rec(node* t, std::span<const entry_t> es) {
    if (t == nullptr || es.empty()) return false;
    // lower_bound: first entry with key >= t->key
    auto lb = std::lower_bound(es.begin(), es.end(), t->key, [](const entry_t& e, const key_t& k) {
      return Entry::comp(e.key, k);
    });
    size_t li = static_cast<size_t>(lb - es.begin());
    bool here = false;
    size_t ri = li;
    if (li < es.size() && !Entry::comp(t->key, es[li].key)) {  // es[li].key == t->key
      t->val = es[li].val;
      here = true;
      ri = li + 1;
    }
    bool lch = false, rch = false;
    if (es.size() <= kTreeGrain) {
      lch = multi_update_rec(t->left, es.subspan(0, li));
      rch = multi_update_rec(t->right, es.subspan(ri));
    } else {
      par_do([&] { lch = multi_update_rec(t->left, es.subspan(0, li)); },
             [&] { rch = multi_update_rec(t->right, es.subspan(ri)); });
    }
    if (here || lch || rch) {
      update(t);
      return true;
    }
    return false;
  }

  static void multi_find_rec(const node* t, std::span<const key_t> ks,
                             std::span<std::optional<val_t>> out) {
    if (ks.empty()) return;
    if (t == nullptr) return;  // leave out[] as nullopt
    auto lb = std::lower_bound(ks.begin(), ks.end(), t->key, [](const key_t& a, const key_t& b) {
      return Entry::comp(a, b);
    });
    size_t li = static_cast<size_t>(lb - ks.begin());
    size_t ri = li;
    if (li < ks.size() && !Entry::comp(t->key, ks[li])) {
      out[li] = t->val;
      ri = li + 1;
    }
    if (ks.size() <= kTreeGrain) {
      multi_find_rec(t->left, ks.subspan(0, li), out.subspan(0, li));
      multi_find_rec(t->right, ks.subspan(ri), out.subspan(ri));
    } else {
      par_do([&] { multi_find_rec(t->left, ks.subspan(0, li), out.subspan(0, li)); },
             [&] { multi_find_rec(t->right, ks.subspan(ri), out.subspan(ri)); });
    }
  }

  // --- set operations (BFS16 union/intersect/difference) --------------------------

  static node* union_rec(node* a, node* b) {
    if (a == nullptr) return b;
    if (b == nullptr) return a;
    auto [bl, bm, br] = split(b, a->key);
    if (bm) free_node(bm);  // prefer a's value
    node* l = a->left;
    node* r = a->right;
    node *nl = nullptr, *nr = nullptr;
    if (node_size(a) + node_size(bl) + node_size(br) <= kTreeGrain) {
      nl = union_rec(l, bl);
      nr = union_rec(r, br);
    } else {
      par_do([&] { nl = union_rec(l, bl); }, [&] { nr = union_rec(r, br); });
    }
    return join(nl, a, nr);
  }

  static node* intersect_rec(node* a, node* b) {
    if (a == nullptr) {
      destroy(b);
      return nullptr;
    }
    if (b == nullptr) {
      destroy(a);
      return nullptr;
    }
    auto [bl, bm, br] = split(b, a->key);
    node* l = a->left;
    node* r = a->right;
    bool keep = bm != nullptr;
    if (bm) free_node(bm);
    node *nl = nullptr, *nr = nullptr;
    size_t work = node_size(a) + node_size(bl) + node_size(br);
    if (work <= kTreeGrain) {
      nl = intersect_rec(l, bl);
      nr = intersect_rec(r, br);
    } else {
      par_do([&] { nl = intersect_rec(l, bl); }, [&] { nr = intersect_rec(r, br); });
    }
    if (keep) {
      a->left = a->right = nullptr;
      return join(nl, a, nr);
    }
    free_node(a);
    return join2(nl, nr);
  }

  static node* difference_rec(node* a, node* b) {
    if (a == nullptr) {
      destroy(b);
      return nullptr;
    }
    if (b == nullptr) return a;
    auto [bl, bm, br] = split(b, a->key);
    bool drop = bm != nullptr;
    if (bm) free_node(bm);
    node* l = a->left;
    node* r = a->right;
    node *nl = nullptr, *nr = nullptr;
    size_t work = node_size(a) + node_size(bl) + node_size(br);
    if (work <= kTreeGrain) {
      nl = difference_rec(l, bl);
      nr = difference_rec(r, br);
    } else {
      par_do([&] { nl = difference_rec(l, bl); }, [&] { nr = difference_rec(r, br); });
    }
    if (drop) {
      free_node(a);
      return join2(nl, nr);
    }
    a->left = a->right = nullptr;
    return join(nl, a, nr);
  }

  // --- invariants ---------------------------------------------------------------

  static void check_rec(const node* t, const key_t* lo, const key_t* hi, bool& ok) {
    if (!t || !ok) return;
    if (lo && !Entry::comp(*lo, t->key)) ok = false;
    if (hi && !Entry::comp(t->key, *hi)) ok = false;
    if (std::abs(node_height(t->left) - node_height(t->right)) > 1) ok = false;
    if (t->height != 1 + std::max(node_height(t->left), node_height(t->right))) ok = false;
    if (t->size != 1 + node_size(t->left) + node_size(t->right)) ok = false;
    check_rec(t->left, lo, &t->key, ok);
    check_rec(t->right, &t->key, hi, ok);
  }
};

// -----------------------------------------------------------------------------
// Ready-made augmentation policies.
// -----------------------------------------------------------------------------

// No augmentation (plain ordered map).
template <typename K, typename V, typename Less = std::less<K>>
struct map_entry {
  using key_t = K;
  using val_t = V;
  struct aug_t {};
  static bool comp(const K& a, const K& b) { return Less{}(a, b); }
  static aug_t aug_empty() { return {}; }
  static aug_t aug_base(const K&, const V&) { return {}; }
  static aug_t aug_combine(const aug_t&, const aug_t&) { return {}; }
};

// Augment on the maximum value.
template <typename K, typename V, V kIdentity, typename Less = std::less<K>>
struct max_val_entry {
  using key_t = K;
  using val_t = V;
  using aug_t = V;
  static bool comp(const K& a, const K& b) { return Less{}(a, b); }
  static aug_t aug_empty() { return kIdentity; }
  static aug_t aug_base(const K&, const V& v) { return v; }
  static aug_t aug_combine(const aug_t& a, const aug_t& b) { return a < b ? b : a; }
};

// Augment on the minimum value.
template <typename K, typename V, V kIdentity, typename Less = std::less<K>>
struct min_val_entry {
  using key_t = K;
  using val_t = V;
  using aug_t = V;
  static bool comp(const K& a, const K& b) { return Less{}(a, b); }
  static aug_t aug_empty() { return kIdentity; }
  static aug_t aug_base(const K&, const V& v) { return v; }
  static aug_t aug_combine(const aug_t& a, const aug_t& b) { return b < a ? b : a; }
};

// Augment on the sum of values.
template <typename K, typename V, typename Less = std::less<K>>
struct sum_val_entry {
  using key_t = K;
  using val_t = V;
  using aug_t = V;
  static bool comp(const K& a, const K& b) { return Less{}(a, b); }
  static aug_t aug_empty() { return V{}; }
  static aug_t aug_base(const K&, const V& v) { return v; }
  static aug_t aug_combine(const aug_t& a, const aug_t& b) { return a + b; }
};

}  // namespace pp
