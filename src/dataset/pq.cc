#include "dataset/pq.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "distance/simd.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cagra {

namespace {

constexpr size_t kC = PqDataset::kNumCentroids;

/// Copies the m-th subspace segment of a dim-element row into a
/// dsub-element buffer, zero-padding past the real dimensions. Training,
/// encoding, LUT building, and the decode reference all pad the same
/// way, so padded dimensions contribute exactly zero everywhere.
void CopySub(const float* row, size_t dim, size_t m, size_t dsub,
             float* out) {
  const size_t start = m * dsub;
  for (size_t j = 0; j < dsub; j++) {
    const size_t d = start + j;
    out[j] = d < dim ? row[d] : 0.0f;
  }
}

/// Index of the nearest codebook centroid for one subspace vector.
/// Distances run through the dispatched batch kernels (256 contiguous
/// centroid rows); ties break toward the lower index. When `best_dist`
/// is non-null it receives the winning squared distance (the k-means
/// SSE bookkeeping needs it).
uint8_t NearestCentroid(const float* sub, const float* centroids_m,
                        size_t dsub, float* dists,
                        float* best_dist = nullptr) {
  ComputeDistanceBatch(Metric::kL2, sub, centroids_m, kC, dsub, dists);
  size_t best = 0;
  for (size_t c = 1; c < kC; c++) {
    if (dists[c] < dists[best]) best = c;
  }
  if (best_dist != nullptr) *best_dist = dists[best];
  return static_cast<uint8_t>(best);
}

/// out = R · x for a row-major dim x dim matrix.
void MatVec(const float* r_mat, size_t dim, const float* x, float* out) {
  for (size_t i = 0; i < dim; i++) {
    const float* row = r_mat + i * dim;
    float acc = 0.0f;
    for (size_t j = 0; j < dim; j++) acc += row[j] * x[j];
    out[i] = acc;
  }
}

/// One subspace training's working set: the sample's column slice and
/// the Lloyd vectors. TrainCodebooksFromRows sizes one per pool slot on
/// the calling thread, so no pool worker allocates while training
/// (memory a worker frees at the top of its malloc arena is never
/// returned to the system).
struct LloydScratch {
  std::vector<float> sub_sample;  // sample x dsub
  std::vector<float> dists;
  std::vector<uint8_t> assign;
  std::vector<float> sums;
  std::vector<uint32_t> counts;
  std::vector<float> sse;

  LloydScratch(size_t sample, size_t dsub)
      : sub_sample(sample * dsub), dists(kC), assign(sample),
        sums(kC * dsub), counts(kC), sse(kC) {}
};

/// Trains one subspace's 256-centroid codebook on the `sample` dsub-dim
/// vectors in s->sub_sample with Lloyd iterations. Init wraps the
/// sample; every round re-seeds empty clusters by splitting the cluster
/// with the largest quantization error (FAISS-style ±eps clone), so
/// duplicate init centroids and clusters drained mid-run turn into
/// extra resolution for the heavy clusters instead of dead codes.
void TrainSubspaceCodebook(size_t sample, size_t dsub, size_t iterations,
                           LloydScratch* s, float* cent) {
  const float* sub_sample = s->sub_sample.data();
  std::vector<float>& dists = s->dists;
  std::vector<uint8_t>& assign = s->assign;
  std::vector<float>& sums = s->sums;
  std::vector<uint32_t>& counts = s->counts;
  std::vector<float>& sse = s->sse;

  for (size_t c = 0; c < kC; c++) {
    std::copy_n(&sub_sample[(c % sample) * dsub], dsub, cent + c * dsub);
  }

  constexpr float kSplitEps = 1.0f / 1024.0f;
  for (size_t iter = 0; iter < iterations; iter++) {
    std::fill(sse.begin(), sse.end(), 0.0f);
    for (size_t i = 0; i < sample; i++) {
      float best = 0.0f;
      assign[i] = NearestCentroid(&sub_sample[i * dsub], cent, dsub,
                                  dists.data(), &best);
      sse[assign[i]] += best;
    }
    std::fill(sums.begin(), sums.end(), 0.0f);
    std::fill(counts.begin(), counts.end(), 0u);
    for (size_t i = 0; i < sample; i++) {
      counts[assign[i]]++;
      float* dst = &sums[assign[i] * dsub];
      const float* src = &sub_sample[i * dsub];
      for (size_t j = 0; j < dsub; j++) dst[j] += src[j];
    }
    for (size_t c = 0; c < kC; c++) {
      if (counts[c] == 0) continue;
      const float inv = 1.0f / static_cast<float>(counts[c]);
      for (size_t j = 0; j < dsub; j++) {
        cent[c * dsub + j] = sums[c * dsub + j] * inv;
      }
    }
    // Re-seed empty clusters (skipped after the last assignment: a
    // split centroid only helps once a following iteration reassigns
    // points to it). Donor = largest SSE among clusters that can spare
    // a point; a donor of identical points has SSE 0 and is never
    // picked — splitting it could not reduce error.
    if (iter + 1 == iterations) continue;
    for (size_t c = 0; c < kC; c++) {
      if (counts[c] != 0) continue;
      size_t donor = kC;
      float donor_sse = 0.0f;
      for (size_t d = 0; d < kC; d++) {
        if (counts[d] >= 2 && sse[d] > donor_sse) {
          donor = d;
          donor_sse = sse[d];
        }
      }
      if (donor == kC) break;  // nothing splittable; remaining stay empty
      for (size_t j = 0; j < dsub; j++) {
        const float v = cent[donor * dsub + j];
        const float eps = (j % 2 == 0) ? kSplitEps : -kSplitEps;
        cent[c * dsub + j] = v * (1.0f + eps);
        cent[donor * dsub + j] = v * (1.0f - eps);
      }
      counts[c] = counts[donor] / 2;
      counts[donor] -= counts[c];
      sse[c] = donor_sse * 0.5f;
      sse[donor] = donor_sse * 0.5f;
    }
  }
}

/// Trains all per-subspace codebooks from `rows` (n x dim, already in
/// the coding space — rotated when OPQ is on), one subspace per pool
/// task. Each task reads only its own columns and writes only its own
/// codebook slice, so the result is byte-identical to a serial loop at
/// any pool width and under any schedule.
void TrainCodebooksFromRows(const float* rows, size_t n, size_t dim,
                            size_t m_subs, size_t dsub, size_t iterations,
                            float* centroids) {
  std::vector<LloydScratch> scratch(GlobalThreadPool().num_slots(),
                                    LloydScratch(n, dsub));
  GlobalThreadPool().ParallelForSlotted(0, m_subs, [&](size_t slot,
                                                       size_t m) {
    LloydScratch& s = scratch[slot];
    for (size_t i = 0; i < n; i++) {
      CopySub(rows + i * dim, dim, m, dsub, &s.sub_sample[i * dsub]);
    }
    TrainSubspaceCodebook(n, dsub, iterations, &s,
                          centroids + m * kC * dsub);
  });
}

/// Encodes n rows through the codebooks, fanned out over the pool.
/// row(slot, r) must return the r-th coding-space row (a worker-local
/// buffer is fine — `slot` identifies the worker). Each row writes only
/// its own code bytes, so the result is identical to a serial encode.
template <typename RowFn>
void EncodeRows(size_t n, size_t dim, size_t m_subs, size_t dsub,
                const float* centroids, const RowFn& row, uint8_t* codes,
                size_t code_stride) {
  struct Scratch {
    std::vector<float> sub;
    std::vector<float> dists;
  };
  std::vector<Scratch> scratch(GlobalThreadPool().num_slots());
  for (auto& s : scratch) {
    s.sub.resize(dsub);
    s.dists.resize(kC);
  }
  GlobalThreadPool().ParallelForSlotted(0, n, [&](size_t slot, size_t r) {
    Scratch& s = scratch[slot];
    const float* src = row(slot, r);
    for (size_t m = 0; m < m_subs; m++) {
      CopySub(src, dim, m, dsub, s.sub.data());
      codes[r * code_stride + m] = NearestCentroid(
          s.sub.data(), centroids + m * kC * dsub, dsub, s.dists.data());
    }
  });
}

// --------------------------------------------------------------- OPQ
// Dense linear algebra for the rotation training, in double precision.
// Both factorizations are Jacobi-rotation based: the accumulated
// rotation matrices are orthogonal at ANY sweep count (they are
// products of plane rotations), so a handful of sweeps yields a valid
// orthogonal result whose quality — not validity — depends on
// convergence. O(dim^3) per sweep.

constexpr size_t kJacobiSweeps = 8;

/// Cyclic-Jacobi eigendecomposition of the symmetric matrix `a`
/// (n x n row-major, destroyed). On return the columns of `v` are the
/// eigenvectors and a's diagonal holds the eigenvalues.
void JacobiEigenSymmetric(std::vector<double>* a_io, size_t n,
                          std::vector<double>* v_out) {
  std::vector<double>& a = *a_io;
  std::vector<double>& v = *v_out;
  v.assign(n * n, 0.0);
  for (size_t i = 0; i < n; i++) v[i * n + i] = 1.0;
  for (size_t sweep = 0; sweep < kJacobiSweeps; sweep++) {
    double off = 0.0, diag = 0.0;
    for (size_t p = 0; p < n; p++) {
      diag += a[p * n + p] * a[p * n + p];
      for (size_t q = p + 1; q < n; q++) off += a[p * n + q] * a[p * n + q];
    }
    if (off <= 1e-24 * std::max(diag, 1e-300)) break;
    for (size_t p = 0; p < n; p++) {
      for (size_t q = p + 1; q < n; q++) {
        const double apq = a[p * n + q];
        if (apq == 0.0) continue;
        const double app = a[p * n + p];
        const double aqq = a[q * n + q];
        const double theta = (aqq - app) / (2.0 * apq);
        const double t =
            (theta >= 0 ? 1.0 : -1.0) /
            (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = c * t;
        for (size_t i = 0; i < n; i++) {
          const double aip = a[i * n + p];
          const double aiq = a[i * n + q];
          a[i * n + p] = c * aip - s * aiq;
          a[i * n + q] = s * aip + c * aiq;
        }
        for (size_t j = 0; j < n; j++) {
          const double apj = a[p * n + j];
          const double aqj = a[q * n + j];
          a[p * n + j] = c * apj - s * aqj;
          a[q * n + j] = s * apj + c * aqj;
        }
        for (size_t i = 0; i < n; i++) {
          const double vip = v[i * n + p];
          const double viq = v[i * n + q];
          v[i * n + p] = c * vip - s * viq;
          v[i * n + q] = s * vip + c * viq;
        }
      }
    }
  }
}

/// Orthogonal (polar) factor of B via one-sided Jacobi SVD:
/// B = U S V^T -> Q = U V^T, the orthogonal-Procrustes maximizer of
/// tr(Q^T B). Returns false when B is numerically rank-deficient (the
/// caller keeps its previous rotation for that round).
bool PolarOrthogonal(std::vector<double> w, size_t n,
                     std::vector<double>* q_out) {
  std::vector<double> v(n * n, 0.0);
  for (size_t i = 0; i < n; i++) v[i * n + i] = 1.0;
  for (size_t sweep = 0; sweep < kJacobiSweeps; sweep++) {
    bool rotated = false;
    for (size_t p = 0; p < n; p++) {
      for (size_t q = p + 1; q < n; q++) {
        double a = 0.0, b = 0.0, c = 0.0;
        for (size_t i = 0; i < n; i++) {
          a += w[i * n + p] * w[i * n + p];
          b += w[i * n + q] * w[i * n + q];
          c += w[i * n + p] * w[i * n + q];
        }
        if (c * c <= 1e-28 * a * b) continue;
        const double zeta = (b - a) / (2.0 * c);
        const double t = (zeta >= 0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(zeta * zeta + 1.0));
        const double cs = 1.0 / std::sqrt(t * t + 1.0);
        const double sn = cs * t;
        for (size_t i = 0; i < n; i++) {
          const double wip = w[i * n + p];
          const double wiq = w[i * n + q];
          w[i * n + p] = cs * wip - sn * wiq;
          w[i * n + q] = sn * wip + cs * wiq;
          const double vip = v[i * n + p];
          const double viq = v[i * n + q];
          v[i * n + p] = cs * vip - sn * viq;
          v[i * n + q] = sn * vip + cs * viq;
        }
        rotated = true;
      }
    }
    if (!rotated) break;
  }
  // Column norms of W are the singular values; U = W / diag(S).
  std::vector<double> inv_norm(n);
  double max_norm = 0.0;
  for (size_t j = 0; j < n; j++) {
    double s = 0.0;
    for (size_t i = 0; i < n; i++) s += w[i * n + j] * w[i * n + j];
    inv_norm[j] = std::sqrt(s);
    max_norm = std::max(max_norm, inv_norm[j]);
  }
  for (size_t j = 0; j < n; j++) {
    if (inv_norm[j] <= 1e-12 * max_norm || inv_norm[j] == 0.0) return false;
    inv_norm[j] = 1.0 / inv_norm[j];
  }
  // Q = U V^T with U[:,j] = W[:,j] * inv_norm[j].
  std::vector<double>& q = *q_out;
  q.assign(n * n, 0.0);
  for (size_t i = 0; i < n; i++) {
    for (size_t j = 0; j < n; j++) {
      const double uij = w[i * n + j] * inv_norm[j];
      for (size_t k = 0; k < n; k++) q[i * n + k] += uij * v[k * n + j];
    }
  }
  // Two Newton-Schulz polish steps, Q <- Q (3I - Q^T Q) / 2: the Jacobi
  // sweeps leave O(1e-4) off-orthogonality at bounded sweep counts;
  // each step squares the residual, landing at machine precision.
  std::vector<double> qtq(n * n), polished(n * n);
  for (int step = 0; step < 2; step++) {
    for (size_t i = 0; i < n; i++) {
      for (size_t j = 0; j < n; j++) {
        double acc = 0.0;
        for (size_t r = 0; r < n; r++) acc += q[r * n + i] * q[r * n + j];
        qtq[i * n + j] = acc;
      }
    }
    for (size_t i = 0; i < n; i++) {
      for (size_t j = 0; j < n; j++) {
        double acc = 0.0;
        for (size_t r = 0; r < n; r++) {
          acc += q[i * n + r] * ((r == j ? 3.0 : 0.0) - qtq[r * n + j]);
        }
        polished[i * n + j] = 0.5 * acc;
      }
    }
    std::swap(q, polished);
  }
  return true;
}

/// PCA init with eigenvalue allocation (Ge et al., OPQ-P): plain PCA
/// ordering would dump all the variance into the leading subspaces —
/// worse than no rotation for PQ, whose per-subspace codebooks want
/// balanced energy. Principal components are therefore dealt greedily,
/// largest eigenvalue to the subspace with the smallest eigenvalue
/// product so far, and R's rows are laid out so each subspace receives
/// exactly its allocated components.
std::vector<double> PcaRotation(const float* s_rows, size_t n, size_t dim,
                                size_t m_subs, size_t dsub) {
  std::vector<double> cov(dim * dim, 0.0);
  for (size_t r = 0; r < n; r++) {
    const float* x = s_rows + r * dim;
    for (size_t i = 0; i < dim; i++) {
      const double xi = x[i];
      for (size_t j = i; j < dim; j++) cov[i * dim + j] += xi * x[j];
    }
  }
  for (size_t i = 0; i < dim; i++) {
    for (size_t j = 0; j < i; j++) cov[i * dim + j] = cov[j * dim + i];
  }
  std::vector<double> v;
  JacobiEigenSymmetric(&cov, dim, &v);
  std::vector<size_t> order(dim);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return cov[a * dim + a] > cov[b * dim + b];
  });

  // Greedy balanced partition: each subspace holds as many components
  // as it has real (un-padded) dims; every component goes to the
  // non-full subspace with the smallest log-eigenvalue sum.
  std::vector<size_t> capacity(m_subs);
  for (size_t m = 0; m < m_subs; m++) {
    const size_t start = m * dsub;
    capacity[m] = start < dim ? std::min(dsub, dim - start) : 0;
  }
  std::vector<std::vector<size_t>> slots(m_subs);
  std::vector<double> log_prod(m_subs, 0.0);
  for (size_t i = 0; i < dim; i++) {
    size_t pick = m_subs;
    for (size_t m = 0; m < m_subs; m++) {
      if (slots[m].size() >= capacity[m]) continue;
      if (pick == m_subs || log_prod[m] < log_prod[pick]) pick = m;
    }
    const double lambda = std::max(cov[order[i] * dim + order[i]], 1e-30);
    slots[pick].push_back(order[i]);
    log_prod[pick] += std::log(lambda);
  }

  std::vector<double> r_mat(dim * dim, 0.0);
  for (size_t m = 0; m < m_subs; m++) {
    for (size_t j = 0; j < slots[m].size(); j++) {
      const size_t row = m * dsub + j;
      const size_t comp = slots[m][j];
      for (size_t d = 0; d < dim; d++) {
        r_mat[row * dim + d] = v[d * dim + comp];
      }
    }
  }
  return r_mat;
}

/// OPQ alternating loop (Ge et al., non-parametric form): starting from
/// the PCA rotation, repeat { rotate sample, train codebooks, encode +
/// reconstruct, solve the orthogonal Procrustes R = argmin
/// ||R x - y||^2 }. The final codebooks (trained on the final rotation)
/// are left in `centroids`; returns R row-major.
std::vector<float> TrainOpqRotation(const float* s_rows, size_t n,
                                    size_t dim, size_t m_subs, size_t dsub,
                                    const PqTrainParams& params,
                                    float* centroids) {
  std::vector<double> r_mat = PcaRotation(s_rows, n, dim, m_subs, dsub);
  std::vector<float> r32(dim * dim);
  std::vector<float> rotated(n * dim);
  std::vector<uint8_t> codes(n * m_subs);
  const size_t rounds = params.opq_iterations;
  for (size_t round = 0; round <= rounds; round++) {
    for (size_t i = 0; i < dim * dim; i++) {
      r32[i] = static_cast<float>(r_mat[i]);
    }
    for (size_t r = 0; r < n; r++) {
      MatVec(r32.data(), dim, s_rows + r * dim, &rotated[r * dim]);
    }
    TrainCodebooksFromRows(rotated.data(), n, dim, m_subs, dsub,
                           params.kmeans_iterations, centroids);
    if (round == rounds) break;  // final codebooks match the final R

    EncodeRows(n, dim, m_subs, dsub, centroids,
               [&](size_t, size_t r) { return &rotated[r * dim]; },
               codes.data(), m_subs);
    // B[j][k] = sum_i y_i[j] * x_i[k] over the sample, with y the
    // codebook reconstruction of the rotated row and x the original.
    std::vector<double> b(dim * dim, 0.0);
    std::vector<float> y(dim);
    for (size_t r = 0; r < n; r++) {
      const uint8_t* code = &codes[r * m_subs];
      for (size_t m = 0; m < m_subs; m++) {
        const float* cent = centroids + (m * kC + code[m]) * dsub;
        for (size_t j = 0; j < dsub && m * dsub + j < dim; j++) {
          y[m * dsub + j] = cent[j];
        }
      }
      const float* x = s_rows + r * dim;
      for (size_t j = 0; j < dim; j++) {
        const double yj = y[j];
        for (size_t k = 0; k < dim; k++) b[j * dim + k] += yj * x[k];
      }
    }
    std::vector<double> q;
    if (!PolarOrthogonal(std::move(b), dim, &q)) break;  // degenerate round
    r_mat = std::move(q);
  }
  for (size_t i = 0; i < dim * dim; i++) r32[i] = static_cast<float>(r_mat[i]);
  return r32;
}

/// Encodes `rows` through the codebooks of `pq` into `codes` (stride
/// num_subspaces), fanned out over the pool. With OPQ each worker
/// rotates its row into local scratch first.
void EncodeInto(const PqDataset& pq, const Matrix<float>& rows,
                uint8_t* codes) {
  std::vector<std::vector<float>> rot_scratch(
      pq.HasRotation() ? GlobalThreadPool().num_slots() : 0);
  for (auto& s : rot_scratch) s.resize(pq.dim);
  EncodeRows(rows.rows(), pq.dim, pq.num_subspaces(), pq.dsub,
             pq.centroids.data(),
             [&](size_t slot, size_t r) -> const float* {
               if (rot_scratch.empty()) return rows.Row(r);
               pq.RotateQuery(rows.Row(r), rot_scratch[slot].data());
               return rot_scratch[slot].data();
             },
             codes, pq.num_subspaces());
}

}  // namespace

void PqDataset::RotateQuery(const float* in, float* out) const {
  MatVec(rotation.data(), dim, in, out);
}

PqDataset TrainPq(const Matrix<float>& dataset, const PqTrainParams& params) {
  PqDataset out;
  const size_t rows = dataset.rows();
  const size_t dim = dataset.dim();
  if (rows == 0 || dim == 0) return out;

  size_t m_subs = params.num_subspaces != 0 ? params.num_subspaces
                                            : std::max<size_t>(1, dim / 4);
  m_subs = std::min(m_subs, dim);  // at least one real dim per subspace
  out.dim = dim;
  out.dsub = (dim + m_subs - 1) / m_subs;
  out.codes = Matrix<uint8_t>(rows, m_subs);
  out.centroids.assign(m_subs * kC * out.dsub, 0.0f);
  out.centroid_norm2.assign(m_subs * kC, 0.0f);

  // Training sample: a partial Fisher-Yates draw without replacement.
  const size_t sample =
      std::min(rows, std::max<size_t>(kC, params.sample_size));
  Pcg32 rng(params.seed, 0x9d5c);
  std::vector<uint32_t> perm(rows);
  std::iota(perm.begin(), perm.end(), 0u);
  for (size_t i = 0; i < sample; i++) {
    const size_t j =
        i + rng.NextBounded(static_cast<uint32_t>(rows - i));
    std::swap(perm[i], perm[j]);
  }
  std::vector<float> sample_rows(sample * dim);
  for (size_t i = 0; i < sample; i++) {
    std::copy_n(dataset.Row(perm[i]), dim, &sample_rows[i * dim]);
  }

  const size_t dsub = out.dsub;
  if (params.rotate && dim >= 2) {
    out.rotation =
        TrainOpqRotation(sample_rows.data(), sample, dim, m_subs, dsub,
                         params, out.centroids.data());
  } else {
    TrainCodebooksFromRows(sample_rows.data(), sample, dim, m_subs, dsub,
                           params.kmeans_iterations, out.centroids.data());
  }

  for (size_t m = 0; m < m_subs; m++) {
    const float* cent = out.centroids.data() + m * kC * dsub;
    for (size_t c = 0; c < kC; c++) {
      float n2 = 0.0f;
      for (size_t j = 0; j < dsub; j++) {
        n2 += cent[c * dsub + j] * cent[c * dsub + j];
      }
      out.centroid_norm2[m * kC + c] = n2;
    }
  }

  // Encode every row — the O(rows * 256 * dim) bulk of training.
  EncodeInto(out, dataset, out.codes.mutable_data()->data());
  RecomputePqRowNorms(&out);
  return out;
}

PqDataset PqEncodeAppend(const PqDataset& pq, const Matrix<float>& rows) {
  PqDataset out;
  out.dim = pq.dim;
  out.dsub = pq.dsub;
  out.centroids = pq.centroids;
  out.centroid_norm2 = pq.centroid_norm2;
  out.rotation = pq.rotation;
  const size_t n0 = pq.rows();
  const size_t n = rows.rows();
  const size_t m_subs = pq.num_subspaces();
  out.codes = Matrix<uint8_t>(n0 + n, m_subs);
  std::copy(pq.codes.data().begin(), pq.codes.data().end(),
            out.codes.mutable_data()->begin());
  EncodeInto(out, rows, out.codes.mutable_data()->data() + n0 * m_subs);
  // row_norm2 is deterministic per row from codes + centroid norms, so
  // recomputing everything reproduces the old rows' values exactly.
  RecomputePqRowNorms(&out);
  return out;
}

void RecomputePqRowNorms(PqDataset* pq) {
  const size_t rows = pq->rows();
  const size_t m_subs = pq->num_subspaces();
  pq->row_norm2.assign(rows, 0.0f);
  if (rows == 0 || m_subs == 0) return;
  // The active adc kernel, so the stored value reproduces the
  // query-independent LUT scan it replaces bit-for-bit
  // (centroid_norm2 has the same M x 256 layout as an ADC table).
  const distance_kernels::KernelTable& k = ActiveKernelTable();
  const float* lut = pq->centroid_norm2.data();
  GlobalThreadPool().ParallelFor(0, rows, [&](size_t r) {
    pq->row_norm2[r] = k.adc(lut, pq->codes.Row(r), m_subs);
  });
}

void BuildAdcTable(const PqDataset& pq, const float* query, Metric metric,
                   PqAdcTable* out) {
  const size_t m_subs = pq.num_subspaces();
  const size_t dsub = pq.dsub;
  const size_t dim = pq.dim;
  out->num_subspaces = m_subs;
  out->metric = metric;
  out->dist.resize(m_subs * kC);
  out->row_norm2 = nullptr;
  out->query_norm2 = 0.0f;

  const float* q = query;
  if (pq.HasRotation()) {
    out->rotated_query.resize(dim);
    pq.RotateQuery(query, out->rotated_query.data());
    q = out->rotated_query.data();
  }

  std::vector<float> qsub(dsub);
  for (size_t m = 0; m < m_subs; m++) {
    CopySub(q, dim, m, dsub, qsub.data());
    float* row = out->dist.data() + m * kC;
    for (size_t c = 0; c < kC; c++) {
      const float* cent = pq.Centroid(m, c);
      float acc = 0.0f;
      if (metric == Metric::kL2) {
        for (size_t j = 0; j < dsub; j++) {
          const float d = qsub[j] - cent[j];
          acc += d * d;
        }
      } else {  // dot partials for kInnerProduct and kCosine
        for (size_t j = 0; j < dsub; j++) acc += qsub[j] * cent[j];
      }
      row[c] = acc;
    }
  }

  if (metric == Metric::kCosine) {
    out->row_norm2 = pq.row_norm2.data();
    // |q|^2 from the original query: orthogonal rotations preserve it,
    // and the un-rotated sum matches the PqDistance reference exactly.
    float nq = 0.0f;
    for (size_t d = 0; d < dim; d++) nq += query[d] * query[d];
    out->query_norm2 = nq;
  }
}

float PqDistance(Metric metric, const float* query, const PqDataset& pq,
                 size_t row) {
  const size_t m_subs = pq.num_subspaces();
  const size_t dsub = pq.dsub;
  const size_t dim = pq.dim;
  const uint8_t* code = pq.codes.Row(row);
  std::vector<float> rotated;
  const float* q = query;
  if (pq.HasRotation()) {
    rotated.resize(dim);
    pq.RotateQuery(query, rotated.data());
    q = rotated.data();
  }
  // Per-subspace partials accumulate in the same order BuildAdcTable +
  // the scalar adc scan use, so the scalar tier reproduces this
  // reference bit-for-bit on kL2/kInnerProduct.
  auto subspace_partial = [&](size_t m, bool l2) {
    const float* cent = pq.Centroid(m, code[m]);
    const size_t start = m * dsub;
    float acc = 0.0f;
    for (size_t j = 0; j < dsub; j++) {
      const size_t d = start + j;
      const float qv = d < dim ? q[d] : 0.0f;
      if (l2) {
        const float diff = qv - cent[j];
        acc += diff * diff;
      } else {
        acc += qv * cent[j];
      }
    }
    return acc;
  };
  switch (metric) {
    case Metric::kL2: {
      float acc = 0.0f;
      for (size_t m = 0; m < m_subs; m++) acc += subspace_partial(m, true);
      return acc;
    }
    case Metric::kInnerProduct: {
      float acc = 0.0f;
      for (size_t m = 0; m < m_subs; m++) acc += subspace_partial(m, false);
      return -acc;
    }
    case Metric::kCosine: {
      float dot = 0.0f, nv = 0.0f, nq = 0.0f;
      for (size_t m = 0; m < m_subs; m++) {
        dot += subspace_partial(m, false);
        nv += pq.centroid_norm2[m * kC + code[m]];
      }
      for (size_t d = 0; d < dim; d++) nq += query[d] * query[d];
      const float denom = std::sqrt(nq) * std::sqrt(nv);
      if (denom == 0.0f) return 1.0f;
      return 1.0f - dot / denom;
    }
  }
  return 0.0f;
}

}  // namespace cagra
