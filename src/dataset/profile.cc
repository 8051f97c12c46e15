#include "dataset/profile.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>

namespace cagra {

const std::vector<DatasetProfile>& AllProfiles() {
  // default_size scales the paper's datasets down so the full bench
  // suite completes on a single core in minutes (calibrated at ~1 ms of
  // build time per node). DEEP-1M/10M/100M keep a 1:2:5 ladder (paper
  // 1:10:100) so scaling trends stay visible; see DESIGN.md §5. Use
  // CAGRA_BENCH_SCALE=large (or real fvecs files) for bigger runs.
  static const std::vector<DatasetProfile>* profiles =
      new std::vector<DatasetProfile>{
          {"SIFT-1M", 128, 1000000, 8000, 32, Metric::kL2, 64, 0.30f, false,
           24},
          {"GIST-1M", 960, 1000000, 2000, 48, Metric::kL2, 48, 0.40f, false,
           32},
          {"GloVe-200", 200, 1183514, 5000, 80, Metric::kCosine, 192, 0.65f,
           true, 40},
          {"NYTimes", 256, 290000, 4000, 64, Metric::kCosine, 128, 0.55f,
           true, 32},
          {"DEEP-1M", 96, 1000000, 6000, 32, Metric::kL2, 96, 0.35f, false,
           16},
          {"DEEP-10M", 96, 10000000, 12000, 32, Metric::kL2, 96, 0.35f,
           false, 16},
          {"DEEP-100M", 96, 100000000, 30000, 32, Metric::kL2, 96, 0.35f,
           false, 16},
      };
  return *profiles;
}

const DatasetProfile* FindProfile(const std::string& name) {
  for (const auto& p : AllProfiles()) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

double BenchScaleFactor() {
  const char* env = std::getenv("CAGRA_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  if (std::strcmp(env, "small") == 0) return 0.25;
  if (std::strcmp(env, "large") == 0) return 4.0;
  return 1.0;
}

size_t ScaledSize(const DatasetProfile& profile) {
  const double scaled =
      static_cast<double>(profile.default_size) * BenchScaleFactor();
  return std::max<size_t>(2000, static_cast<size_t>(scaled));
}

}  // namespace cagra
