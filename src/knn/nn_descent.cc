#include "knn/nn_descent.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <vector>

#include "util/rng.h"
#include "util/sort.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace cagra {

namespace {

/// One entry of a node's candidate neighbor list.
struct Neighbor {
  float distance;
  uint32_t id;
  bool is_new;  ///< not yet used in a local join
};

/// Fixed-capacity neighbor list kept sorted by (distance, id), the order
/// of every search buffer. Insertion is the classic NN-descent UPDATE:
/// reject duplicates and anything not ahead of the current tail. Under a
/// total order the list ends each local join as the k best of everything
/// offered, whichever thread took the lock first; with ties unordered,
/// equal-distance ids would race for the last slots.
class NeighborHeapList {
 public:
  void Init(size_t capacity) {
    capacity_ = capacity;
    entries_.reserve(capacity);
  }

  /// Returns 1 if inserted (an "update" in the termination criterion).
  size_t Insert(float distance, uint32_t id) {
    const Neighbor entry{distance, id, true};
    if (entries_.size() >= capacity_ && !Before(entry, entries_.back())) {
      return 0;
    }
    // Reject if already present. A stored copy sorts no later than `it`:
    // the distance function is deterministic, so it cannot carry a worse
    // distance than this one.
    auto it = std::lower_bound(entries_.begin(), entries_.end(), entry,
                               Before);
    if (it != entries_.end() && it->id == id) return 0;
    for (auto scan = entries_.begin(); scan != it; ++scan) {
      if (scan->id == id) return 0;
    }
    entries_.insert(it, entry);
    if (entries_.size() > capacity_) entries_.pop_back();
    return 1;
  }

  std::vector<Neighbor>& entries() { return entries_; }
  const std::vector<Neighbor>& entries() const { return entries_; }

 private:
  static bool Before(const Neighbor& a, const Neighbor& b) {
    return KeyValueLess({a.distance, a.id}, {b.distance, b.id});
  }

  size_t capacity_ = 0;
  std::vector<Neighbor> entries_;
};

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

  std::vector<NeighborHeapList> lists(n);
  std::unique_ptr<std::mutex[]> locks(new std::mutex[n]);
  std::atomic<size_t> distance_count{0};

  // --- Random initialization. Candidates are sampled in rounds: a whole
  // chunk of ids is drawn up front, their distances run as one batched
  // gather call, and only then do the inserts happen. Termination checks
  // the list's actual fill level between rounds, so how many ids get
  // sampled no longer depends on the result of each individual insert —
  // the sampling/termination coupling the old per-pair loop had.
  GlobalThreadPool().ParallelFor(0, n, [&](size_t v) {
    Pcg32 rng(params.seed + v, 17);
    lists[v].Init(k);
    // 2k candidates per round: one round usually fills the list even
    // with the duplicates and self-hits the sampler may draw.
    const size_t chunk = 2 * k;
    std::vector<uint32_t> cand;
    std::vector<float> cand_dists;
    cand.reserve(chunk);
    size_t attempts = 0;
    while (lists[v].entries().size() < k && attempts < 100 * k) {
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
        lists[v].Insert(cand_dists[i], cand[i]);
      }
    }
  });

  const size_t max_sample = std::max<size_t>(
      1, static_cast<size_t>(params.sample_rate * static_cast<double>(k)));

  size_t iteration = 0;
  for (; iteration < params.max_iterations; iteration++) {
    // --- Build sampled new/old forward and reverse lists.
    std::vector<std::vector<uint32_t>> new_lists(n), old_lists(n);
    for (size_t v = 0; v < n; v++) {
      Pcg32 rng(params.seed ^ (iteration * 0x9e37u) ^ v, 23);
      auto& entries = lists[v].entries();
      size_t sampled_new = 0;
      for (auto& e : entries) {
        if (e.is_new) {
          if (sampled_new < max_sample &&
              rng.NextFloat() < params.sample_rate) {
            new_lists[v].push_back(e.id);
            e.is_new = false;  // mark used
            sampled_new++;
          }
        } else {
          old_lists[v].push_back(e.id);
        }
      }
    }
    // Reverse lists, sampled to max_sample per node.
    std::vector<std::vector<uint32_t>> rnew(n), rold(n);
    for (size_t v = 0; v < n; v++) {
      for (const uint32_t u : new_lists[v]) {
        rnew[u].push_back(static_cast<uint32_t>(v));
      }
      for (const uint32_t u : old_lists[v]) {
        rold[u].push_back(static_cast<uint32_t>(v));
      }
    }
    std::atomic<size_t> updates{0};
    GlobalThreadPool().ParallelFor(0, n, [&](size_t v) {
      Pcg32 rng(params.seed ^ (iteration * 0x85ebu) ^ (v << 1), 29);
      // Union of forward and sampled-reverse lists.
      std::vector<uint32_t> all_new = new_lists[v];
      std::vector<uint32_t> all_old = old_lists[v];
      auto sample_into = [&](const std::vector<uint32_t>& src,
                             std::vector<uint32_t>* dst) {
        for (const uint32_t u : src) {
          if (dst->size() >= 2 * max_sample) {
            (*dst)[rng.NextBounded(static_cast<uint32_t>(dst->size()))] = u;
          } else {
            dst->push_back(u);
          }
        }
      };
      sample_into(rnew[v], &all_new);
      sample_into(rold[v], &all_old);

      size_t local_updates = 0;
      size_t local_distances = 0;
      // new x new (unordered pairs) and new x old. Each anchor's join
      // partners are gathered first so all their distances run as one
      // SIMD-dispatched batch; inserts then proceed in the same order
      // the per-pair loop used, under the same per-node locks.
      std::vector<uint32_t> partners;
      std::vector<float> partner_dists;
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
                              base.dim(), partners.data(), partners.size(),
                              partner_dists.data());
        local_distances += partners.size();
        for (size_t p = 0; p < partners.size(); p++) {
          const uint32_t b = partners[p];
          const float d = partner_dists[p];
          {
            std::lock_guard<std::mutex> lock(locks[a]);
            local_updates += lists[a].Insert(d, b);
          }
          {
            std::lock_guard<std::mutex> lock(locks[b]);
            local_updates += lists[b].Insert(d, a);
          }
        }
      }
      updates.fetch_add(local_updates, std::memory_order_relaxed);
      distance_count.fetch_add(local_distances, std::memory_order_relaxed);
    });

    const double threshold = params.termination_delta *
                             static_cast<double>(n) * static_cast<double>(k);
    if (static_cast<double>(updates.load()) <= threshold) {
      iteration++;
      break;
    }
  }

  // --- Emit the fixed-degree graph, neighbor rows in (distance, id) order.
  for (size_t v = 0; v < n; v++) {
    const auto& entries = lists[v].entries();
    uint32_t* row = graph.MutableNeighbors(v);
    for (size_t i = 0; i < entries.size() && i < graph.degree(); i++) {
      row[i] = entries[i].id;
    }
  }

  if (stats != nullptr) {
    stats->iterations = iteration;
    stats->distance_computations = distance_count.load();
    stats->seconds = timer.Seconds();
  }
  return graph;
}

}  // namespace cagra
