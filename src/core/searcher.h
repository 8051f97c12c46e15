#ifndef CAGRA_CORE_SEARCHER_H_
#define CAGRA_CORE_SEARCHER_H_

#include <cstddef>

#include "core/search.h"

namespace cagra {

/// The unified search front door. A Searcher answers one batched
/// request — `Search(queries, params)` with every knob (k, itopk,
/// precision, threading) folded into SearchParams — regardless of what
/// executes it underneath: a single CagraIndex (IndexSearcher), the
/// sharded search (ShardedCagraIndex), or any future
/// backend. The serving scheduler, and every feature written on top of
/// it, targets this interface once instead of the per-backend entry
/// points; tests inject fakes through it to script execution timing.
class Searcher {
 public:
  virtual ~Searcher() = default;

  /// Runs the batch. Implementations validate with ValidateSearchParams
  /// so identical bad inputs produce identical errors on every path.
  [[nodiscard]] virtual Result<SearchResult> Search(
      const Matrix<float>& queries, const SearchParams& params) const = 0;

  /// Dimensionality a query row must have.
  virtual size_t dim() const = 0;
};

/// Thin adapter making a CagraIndex a Searcher: forwards to the free
/// Search(). Non-owning — the index must outlive the adapter.
class IndexSearcher : public Searcher {
 public:
  explicit IndexSearcher(const CagraIndex& index) : index_(&index) {}

  [[nodiscard]] Result<SearchResult> Search(
      const Matrix<float>& queries,
      const SearchParams& params) const override {
    return cagra::Search(*index_, queries, params);
  }

  size_t dim() const override { return index_->dim(); }

 private:
  const CagraIndex* index_;
};

}  // namespace cagra

#endif  // CAGRA_CORE_SEARCHER_H_
