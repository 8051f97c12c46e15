#include "knn/nn_descent.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <memory>
#include <vector>

#include "knn/bruteforce.h"
#include "util/rng.h"
#include "util/sort.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cagra {

namespace {

/// Marks a list entry whose id has not been used in a local join yet. It
/// is the bit the search buffers use for the §IV-B4 parent flag, which
/// KeyValueLess masks, so the mark never moves an entry. Ids stay below
/// kIndexMask (CagraIndex::kMaxDatasetSize).
constexpr uint32_t kNewFlag = kParentFlag;

/// Fills the unused slots of a list that is not full yet. It sorts after
/// every real entry, so it is also such a list's tail.
constexpr KeyValue kOpenSlot{std::numeric_limits<float>::quiet_NaN(),
                             kIndexMask};

inline bool IsOpen(const KeyValue& entry) {
  return entry.value == kOpenSlot.value;
}

/// The n neighbor lists, rows of one flat n x k array, each kept sorted
/// by (distance, id), the order of every search buffer. Insertion is the
/// classic NN-descent UPDATE: reject anything not ahead of the current
/// tail, and duplicates, so a full list's tail only ever improves. A
/// dense copy of every tail lets the local join filter offers without
/// reading the rows.
class NeighborLists {
 public:
  NeighborLists(size_t n, size_t k)
      : k_(k), entries_(n * k, kOpenSlot), tails_(n, kOpenSlot) {}

  KeyValue* Row(size_t v) { return entries_.data() + v * k_; }

  /// What an offer to v's list must sort before: the tail of a full
  /// list, kOpenSlot otherwise.
  const KeyValue& Tail(size_t v) const { return tails_[v]; }

  /// Returns 1 if inserted (an "update" in the termination criterion).
  size_t Insert(size_t v, float distance, uint32_t id) {
    const KeyValue entry{distance, id | kNewFlag};
    if (!KeyValueLess(entry, tails_[v])) return 0;
    // Reject if already present. A stored copy sorts no later than `it`:
    // the distance function is deterministic, so it cannot carry a worse
    // distance than this one. `it` is a slot of the row, since the entry
    // sorts before the last one.
    KeyValue* row = Row(v);
    KeyValue* it = std::lower_bound(row, row + k_, entry, KeyValueLess);
    if ((it->value & kIndexMask) == id) return 0;
    for (const KeyValue* scan = row; scan != it; ++scan) {
      if ((scan->value & kIndexMask) == id) return 0;
    }
    std::copy_backward(it, row + k_ - 1, row + k_);
    *it = entry;
    tails_[v] = row[k_ - 1];
    return 1;
  }

 private:
  size_t k_;
  std::vector<KeyValue> entries_;
  std::vector<KeyValue> tails_;
};

/// One offer of the local join: (distance, id) offered to target's list.
struct Offer {
  float distance;
  uint32_t target;
  uint32_t id;
};

/// Phase-1 tasks of the local join take chunks of at most this many
/// nodes.
constexpr size_t kChunkNodes = 32;

/// The most pairs a block may score, whatever n; see `block` below.
constexpr size_t kBlockPairBudget = size_t{1} << 22;

/// Targets per owner group in phase 2: owner w applies the offers to the
/// groups g with g % owners == w. A group's tails span 512 bytes, so two
/// owners share a cache line of the tail array only at group edges.
constexpr size_t kOwnerGroup = 64;

/// Scratch of one pool slot in phase 1.
struct JoinScratch {
  std::vector<uint32_t> all_new, all_old, partners;
  std::vector<float> partner_dists;
  /// One node's kept offers, in join order. Left uninitialized, so only
  /// the prefix that offers are kept into becomes resident.
  std::unique_ptr<Offer[]> offers;
  std::vector<size_t> cursor;
};

/// Ids of one node's join candidates, a view into a sampled list.
struct IdRange {
  const uint32_t* first;
  const uint32_t* last;
  const uint32_t* begin() const { return first; }
  const uint32_t* end() const { return last; }
};

/// Row v of a CSR list.
IdRange Csr(const std::vector<size_t>& start, const std::vector<uint32_t>& ids,
            size_t v) {
  return IdRange{ids.data() + start[v], ids.data() + start[v + 1]};
}

/// CSR reverse of the per-node lists `forward(v)`: for each u, every v
/// whose list holds u, in ascending order of v.
template <typename Forward>
void BuildReverse(size_t n, const Forward& forward, std::vector<size_t>* start,
                  std::vector<uint32_t>* sources) {
  start->assign(n + 1, 0);
  for (size_t v = 0; v < n; v++) {
    for (const uint32_t u : forward(v)) (*start)[u + 1]++;
  }
  for (size_t u = 0; u < n; u++) (*start)[u + 1] += (*start)[u];
  sources->resize(start->back());
  // Fill with start[u] as u's cursor, then shift the ends back to starts.
  for (size_t v = 0; v < n; v++) {
    for (const uint32_t u : forward(v)) {
      (*sources)[(*start)[u]++] = static_cast<uint32_t>(v);
    }
  }
  for (size_t u = n; u > 0; u--) (*start)[u] = (*start)[u - 1];
  (*start)[0] = 0;
}

}  // namespace

FixedDegreeGraph BuildKnnGraphNnDescent(const Matrix<float>& base,
                                        const NnDescentParams& params,
                                        Metric metric,
                                        NnDescentStats* stats) {
  Timer timer;
  const size_t n = base.rows();
  const size_t k = std::min(params.k, n > 0 ? n - 1 : 0);
  FixedDegreeGraph graph(n, params.k);
  if (n == 0 || k == 0) return graph;

  ThreadPool& pool = GlobalThreadPool();
  NeighborLists lists(n, k);
  std::atomic<size_t> distance_count{0};

  // --- Random initialization. Candidates are sampled in rounds: a whole
  // chunk of ids is drawn up front, their distances run as one batched
  // gather call, and only then do the inserts happen. Termination checks
  // the list's actual fill level between rounds, so how many ids get
  // sampled no longer depends on the result of each individual insert —
  // the sampling/termination coupling the old per-pair loop had.
  pool.ParallelFor(0, n, [&](size_t v) {
    Pcg32 rng(params.seed + v, 17);
    // 2k candidates per round: one round usually fills the list even
    // with the duplicates and self-hits the sampler may draw.
    const size_t chunk = 2 * k;
    std::vector<uint32_t> cand;
    std::vector<float> cand_dists;
    cand.reserve(chunk);
    size_t attempts = 0;
    while (IsOpen(lists.Tail(v)) && attempts < 100 * k) {
      cand.clear();
      while (cand.size() < chunk && attempts < 100 * k) {
        attempts++;
        const uint32_t u = rng.NextBounded(static_cast<uint32_t>(n));
        if (u != v) cand.push_back(u);
      }
      cand_dists.resize(cand.size());
      ComputeDistanceGather(metric, base.Row(v), base.data().data(),
                            base.dim(), cand.data(), cand.size(),
                            cand_dists.data());
      distance_count.fetch_add(cand.size(), std::memory_order_relaxed);
      for (size_t i = 0; i < cand.size(); i++) {
        lists.Insert(v, cand_dists[i], cand[i]);
      }
    }
  });

  // --- The recall exit's sample and its exact lists.
  std::vector<uint32_t> sample(std::min(n, kNnDescentRecallSample));
  for (size_t s = 0; s < sample.size(); s++) {
    sample[s] = static_cast<uint32_t>(s * n / sample.size());
  }
  const Matrix<uint32_t> truth = ExactNeighborsOf(base, sample, k, metric);
  distance_count.fetch_add(sample.size() * n, std::memory_order_relaxed);
  const auto sampled_recall = [&] {
    size_t hits = 0;
    for (size_t s = 0; s < sample.size(); s++) {
      const uint32_t* exact = truth.Row(s);
      const KeyValue* row = lists.Row(sample[s]);
      for (size_t i = 0; i < k && !IsOpen(row[i]); i++) {
        hits += std::find(exact, exact + k, row[i].value & kIndexMask) !=
                exact + k;
      }
    }
    return static_cast<double>(hits) /
           static_cast<double>(sample.size() * k);
  };

  const size_t max_sample = std::max<size_t>(
      1, static_cast<size_t>(params.sample_rate * static_cast<double>(k)));

  // Per iteration, node v's forward candidates are its old ids, then its
  // sampled new ids, both in list order, in row v of `forward`. The
  // reverse lists are CSR.
  std::vector<uint32_t> forward(n * k);
  std::vector<uint32_t> num_old(n), num_new(n);
  std::vector<size_t> rnew_start, rold_start;
  std::vector<uint32_t> rnew, rold;
  const auto old_ids = [&](size_t v) {
    const uint32_t* row = forward.data() + v * k;
    return IdRange{row, row + num_old[v]};
  };
  const auto new_ids = [&](size_t v) {
    const uint32_t* row = forward.data() + v * k + num_old[v];
    return IdRange{row, row + num_new[v]};
  };

  // The local join runs block by block over the nodes, in two phases
  // (DESIGN.md §2). Phase 1 scores the block's pairs in parallel and keeps
  // the offers that can enter a list: an offer is dropped when it does not
  // sort before its target's tail as of the block's start. Tails only
  // improve, so a one-thread join would reject it too. Phase 2 applies
  // the kept offers with one owner per target, in the one-thread join's
  // order, so each list takes the same inserts in the same order whatever
  // the pool's width or timing.
  //
  // A block's memory is its kept offers. The block is sized so the pairs
  // it could score at most stay near 3·n·k, in proportion to the lists,
  // and within kBlockPairBudget, but it takes at least 16 nodes. Chunks
  // are cut so a block spans at least 16 of them where it can, to keep
  // the pool busy.
  const size_t max_new = 2 * max_sample;
  const size_t max_old = std::max(k, 2 * max_sample);
  const size_t max_pairs = max_new * (max_new - 1) / 2 + max_new * max_old;
  const size_t block = std::min(
      n, std::max<size_t>(
             16, std::min(3 * n * k, kBlockPairBudget) / max_pairs));
  const size_t chunk_nodes = std::clamp<size_t>(block / 16, 1, kChunkNodes);
  // Owners: a power of two, about four per thread for balance, at most
  // 64 so a node's per-owner slices stay small next to its offers.
  size_t owners = 1;
  while (owners < std::min<size_t>(4 * pool.Width(0), 64)) owners *= 2;
  const auto owner_of = [&](uint32_t target) {
    return (target / kOwnerGroup) & (owners - 1);
  };
  // The block's kept offers, each node's grouped by owner: owner w's
  // offers from the block's j-th node are block_offers[i] for i in
  // [slice[w], slice[w + 1]), slice = node_slice(j), in join order. Nodes
  // claim their ranges through an atomic cursor, so the buffer fills from
  // its start and only the offers kept become resident.
  //
  // Every buffer the pool fills in the join is allocated here, so workers
  // allocate nothing: what a worker frees would stay resident in its own
  // malloc arena after the build.
  const std::unique_ptr<Offer[]> block_offers(
      new Offer[2 * block * max_pairs]);
  std::vector<size_t> slices(block * (owners + 1));
  const auto node_slice = [&](size_t j) {
    return slices.data() + j * (owners + 1);
  };
  std::vector<JoinScratch> scratch(pool.num_slots());
  for (JoinScratch& js : scratch) {
    js.all_new.reserve(max_new);
    js.all_old.reserve(max_old);
    js.partners.reserve(max_new + max_old);
    js.partner_dists.reserve(max_new + max_old);
    js.offers.reset(new Offer[2 * max_pairs]);
    js.cursor.resize(owners);
  }

  size_t updates_total = 0;
  double recall = 0.0;
  size_t iteration = 0;
  for (; iteration < params.max_iterations; iteration++) {
    // --- Sample each node's new and old candidates.
    pool.ParallelFor(0, n, [&](size_t v) {
      Pcg32 rng(params.seed ^ (iteration * 0x9e37u) ^ v, 23);
      KeyValue* row = lists.Row(v);
      uint32_t* out = forward.data() + v * k;
      size_t olds = 0;
      for (size_t i = 0; i < k && !IsOpen(row[i]); i++) {
        if ((row[i].value & kNewFlag) == 0) out[olds++] = row[i].value;
      }
      size_t sampled_new = 0;
      for (size_t i = 0; i < k && !IsOpen(row[i]); i++) {
        KeyValue& e = row[i];
        if ((e.value & kNewFlag) != 0 && sampled_new < max_sample &&
            rng.NextFloat() < params.sample_rate) {
          e.value &= kIndexMask;  // mark used
          out[olds + sampled_new++] = e.value;
        }
      }
      num_old[v] = static_cast<uint32_t>(olds);
      num_new[v] = static_cast<uint32_t>(sampled_new);
    });
    // Reverse lists, whole; the join's sample_into samples them.
    BuildReverse(n, new_ids, &rnew_start, &rnew);
    BuildReverse(n, old_ids, &rold_start, &rold);

    std::atomic<size_t> updates{0};
    for (size_t lo = 0; lo < n; lo += block) {
      const size_t hi = std::min(n, lo + block);
      const size_t chunks = (hi - lo + chunk_nodes - 1) / chunk_nodes;
      std::atomic<size_t> claimed{0};  // offers of the block so far

      // --- Phase 1: score and filter.
      pool.ParallelForSlotted(0, chunks, [&](size_t slot, size_t c) {
        JoinScratch& js = scratch[slot];
        std::vector<uint32_t>& all_new = js.all_new;
        std::vector<uint32_t>& all_old = js.all_old;
        std::vector<uint32_t>& partners = js.partners;
        std::vector<float>& partner_dists = js.partner_dists;
        size_t local_distances = 0;
        const size_t end = std::min(hi, lo + (c + 1) * chunk_nodes);
        for (size_t v = lo + c * chunk_nodes; v < end; v++) {
          Pcg32 rng(params.seed ^ (iteration * 0x85ebu) ^ (v << 1), 29);
          // Union of forward and sampled-reverse lists.
          const IdRange fwd_new = new_ids(v), fwd_old = old_ids(v);
          all_new.assign(fwd_new.begin(), fwd_new.end());
          all_old.assign(fwd_old.begin(), fwd_old.end());
          auto sample_into = [&](IdRange src, std::vector<uint32_t>* dst) {
            for (const uint32_t u : src) {
              if (dst->size() >= 2 * max_sample) {
                (*dst)[rng.NextBounded(static_cast<uint32_t>(dst->size()))] = u;
              } else {
                dst->push_back(u);
              }
            }
          };
          sample_into(Csr(rnew_start, rnew, v), &all_new);
          sample_into(Csr(rold_start, rold, v), &all_old);
          size_t count = 0;  // offers kept in js.offers

          // new x new (unordered pairs) and new x old. Each anchor's join
          // partners are gathered first so all their distances run as
          // one SIMD-dispatched batch.
          for (size_t i = 0; i < all_new.size(); i++) {
            const uint32_t a = all_new[i];
            partners.clear();
            for (size_t j = i + 1; j < all_new.size(); j++) {
              if (all_new[j] != a) partners.push_back(all_new[j]);
            }
            for (const uint32_t o : all_old) {
              if (o != a) partners.push_back(o);
            }
            partner_dists.resize(partners.size());
            ComputeDistanceGather(metric, base.Row(a), base.data().data(),
                                  base.dim(), partners.data(),
                                  partners.size(), partner_dists.data());
            local_distances += partners.size();
            const KeyValue tail_a = lists.Tail(a);
            for (size_t p = 0; p < partners.size(); p++) {
              const uint32_t b = partners[p];
              const float d = partner_dists[p];
              // Written unconditionally, kept by advancing past it.
              js.offers[count] = {d, a, b};
              count += KeyValueLess({d, b}, tail_a);
              js.offers[count] = {d, b, a};
              count += KeyValueLess({d, a}, lists.Tail(b));
            }
          }

          // Copy the node's kept offers to the block, grouped by owner,
          // in order.
          size_t* slice = node_slice(v - lo);
          std::fill(slice, slice + owners + 1, 0);
          for (size_t o = 0; o < count; o++) {
            slice[owner_of(js.offers[o].target) + 1]++;
          }
          slice[0] = claimed.fetch_add(count, std::memory_order_relaxed);
          for (size_t w = 0; w < owners; w++) slice[w + 1] += slice[w];
          std::copy(slice, slice + owners, js.cursor.begin());
          for (size_t o = 0; o < count; o++) {
            const Offer& offer = js.offers[o];
            block_offers[js.cursor[owner_of(offer.target)]++] = offer;
          }
        }
        distance_count.fetch_add(local_distances, std::memory_order_relaxed);
      });

      // --- Phase 2: apply. Owner w reads its offers node by node, so a
      // target takes them by node, anchor, partner, a before b.
      pool.ParallelFor(0, owners, [&](size_t w) {
        size_t local_updates = 0;
        for (size_t v = lo; v < hi; v++) {
          const size_t* slice = node_slice(v - lo);
          for (size_t i = slice[w]; i < slice[w + 1]; i++) {
            const Offer& offer = block_offers[i];
            local_updates +=
                lists.Insert(offer.target, offer.distance, offer.id);
          }
        }
        updates.fetch_add(local_updates, std::memory_order_relaxed);
      });
    }
    updates_total += updates.load();

    // The lists are read only after phase 2, so the exits see what a
    // one-thread join would. The update count alone stops too late: an
    // iteration's updates follow the misses the one before it left
    // (DESIGN.md §2).
    recall = sampled_recall();
    const double threshold = params.termination_delta *
                             static_cast<double>(n) * static_cast<double>(k);
    if (recall >= kNnDescentTargetRecall ||
        static_cast<double>(updates.load()) <= threshold) {
      iteration++;
      break;
    }
  }

  // --- Emit the fixed-degree graph, neighbor rows in (distance, id) order.
  for (size_t v = 0; v < n; v++) {
    const KeyValue* row = lists.Row(v);
    uint32_t* out = graph.MutableNeighbors(v);
    for (size_t i = 0; i < k && !IsOpen(row[i]); i++) {
      out[i] = row[i].value & kIndexMask;
    }
  }

  if (stats != nullptr) {
    stats->iterations = iteration;
    stats->distance_computations = distance_count.load();
    stats->updates = updates_total;
    stats->sampled_recall = recall;
    stats->seconds = timer.Seconds();
  }
  return graph;
}

}  // namespace cagra
