#include "est/ys.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "util/hash.h"

namespace gus {

namespace {

/// 64-bit key for the S-projection of row i's lineage (salted by mask so
/// different projections never share key spaces).
uint64_t ProjectedKey(const SampleView& view, SubsetMask mask, int64_t i) {
  uint64_t h = Mix64(mask | 0xABCD000000000000ULL);
  for (int d = 0; d < view.schema.arity(); ++d) {
    if (mask & (SubsetMask{1} << d)) {
      h = HashCombine(h, view.lineage[d][i]);
    }
  }
  return h;
}

/// \brief Calls `on_row(i, g)` for every row i in order, where g is the
/// dense id of row i's S-projection group.
///
/// Group ids are assigned in first-occurrence order, so callers keep dense
/// per-group sums and fold them in that order: deterministic and
/// independent of any standard-library hash container. Open addressing
/// with linear probing on the 64-bit ProjectedKey, so the groups are the
/// key-equality classes (what a hash map keyed by ProjectedKey forms).
/// The table holds at least twice as many slots as rows, so it is at most
/// half full.
template <typename OnRow>
void ForEachProjectedGroup(const SampleView& view, SubsetMask mask,
                           OnRow on_row) {
  struct Slot {
    uint64_t key = 0;
    int64_t group = -1;  // -1: empty
  };
  const int64_t rows = view.num_rows();
  const size_t capacity =
      std::bit_ceil(static_cast<size_t>(std::max<int64_t>(8, 2 * rows)));
  std::vector<Slot> slots(capacity);
  const size_t slot_mask = capacity - 1;
  int64_t groups = 0;
  for (int64_t i = 0; i < rows; ++i) {
    const uint64_t key = ProjectedKey(view, mask, i);
    size_t at = static_cast<size_t>(key) & slot_mask;
    while (slots[at].group >= 0 && slots[at].key != key) {
      at = (at + 1) & slot_mask;
    }
    if (slots[at].group < 0) slots[at] = {key, groups++};
    on_row(i, slots[at].group);
  }
}

}  // namespace

double ComputeYS(const SampleView& view, SubsetMask mask) {
  if (mask == 0) {
    const double s = view.SumF();
    return s * s;
  }
  // Note: even the full mask must group by lineage — block-sampled
  // relations share a lineage id across all rows of a block, so agreement
  // on the entire lineage schema does not imply row identity.
  std::vector<double> sums;
  ForEachProjectedGroup(view, mask, [&](int64_t i, int64_t g) {
    if (g == static_cast<int64_t>(sums.size())) sums.push_back(0.0);
    sums[static_cast<size_t>(g)] += view.f[i];
  });
  double y = 0.0;
  for (const double sum : sums) y += sum * sum;
  return y;
}

Result<double> ComputeYSBilinear(const SampleView& view,
                                 const std::vector<double>& g,
                                 SubsetMask mask) {
  if (static_cast<int64_t>(g.size()) != view.num_rows()) {
    return Status::InvalidArgument("g must align with the sample view");
  }
  if (mask == 0) {
    double sf = view.SumF();
    double sg = std::accumulate(g.begin(), g.end(), 0.0);
    return sf * sg;
  }
  std::vector<double> sums_f, sums_g;
  ForEachProjectedGroup(view, mask, [&](int64_t i, int64_t group) {
    if (group == static_cast<int64_t>(sums_f.size())) {
      sums_f.push_back(0.0);
      sums_g.push_back(0.0);
    }
    sums_f[static_cast<size_t>(group)] += view.f[i];
    sums_g[static_cast<size_t>(group)] += g[i];
  });
  double y = 0.0;
  for (size_t k = 0; k < sums_f.size(); ++k) y += sums_f[k] * sums_g[k];
  return y;
}

std::vector<double> ComputeAllYS(const SampleView& view) {
  std::vector<double> ys(view.schema.num_subsets());
  for (SubsetMask m = 0; m < ys.size(); ++m) ys[m] = ComputeYS(view, m);
  return ys;
}

Result<std::vector<double>> ComputeAllYSBilinear(
    const SampleView& view, const std::vector<double>& g) {
  std::vector<double> ys(view.schema.num_subsets());
  for (SubsetMask m = 0; m < ys.size(); ++m) {
    GUS_ASSIGN_OR_RETURN(ys[m], ComputeYSBilinear(view, g, m));
  }
  return ys;
}

double ComputeYSSorted(const SampleView& view, SubsetMask mask) {
  if (mask == 0) {
    const double s = view.SumF();
    return s * s;
  }
  std::vector<int64_t> idx(view.num_rows());
  std::iota(idx.begin(), idx.end(), int64_t{0});
  auto key_less = [&](int64_t a, int64_t b) {
    for (int d = 0; d < view.schema.arity(); ++d) {
      if (mask & (SubsetMask{1} << d)) {
        if (view.lineage[d][a] != view.lineage[d][b]) {
          return view.lineage[d][a] < view.lineage[d][b];
        }
      }
    }
    return false;
  };
  auto key_equal = [&](int64_t a, int64_t b) {
    return !key_less(a, b) && !key_less(b, a);
  };
  std::sort(idx.begin(), idx.end(), key_less);
  double y = 0.0;
  double group = 0.0;
  for (size_t i = 0; i < idx.size(); ++i) {
    if (i > 0 && !key_equal(idx[i - 1], idx[i])) {
      y += group * group;
      group = 0.0;
    }
    group += view.f[idx[i]];
  }
  if (!idx.empty()) y += group * group;
  return y;
}

}  // namespace gus
