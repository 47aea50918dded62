#include "src/core/cluster_workspace.h"

#include <algorithm>
#include <cstring>

#include "src/core/residue_kernels.h"
#include "src/obs/metrics.h"
#include "src/util/check.h"

namespace deltaclus {

namespace {

// Full gather rebuilds of a stale pane (the compaction path included).
obs::Counter* PaneRebuildsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("floc.pane.rebuilds");
  return counter;
}

// Single-toggle patches applied in place of a rebuild.
obs::Counter* PanePatchesCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("floc.pane.patches");
  return counter;
}

// Patches declined -- dead fraction or physical capacity over threshold
// -- leaving the pane stale so the next EnsurePane() performs a
// compacting rebuild.
obs::Counter* PaneCompactionsCounter() {
  static obs::Counter* counter =
      obs::MetricsRegistry::Global().GetCounter("floc.pane.compactions");
  return counter;
}

// Physical slack a rebuild leaves for future appends. Proportional so
// big clusters absorb proportionally more toggles between compactions;
// the +8 floor keeps small clusters patchable at all.
size_t PaneSlack(size_t n) { return n / 8 + 8; }

// Logical deletions tolerated before a patch declines in favor of a
// compacting rebuild: half the live extent, with the same small floor.
bool DeadOverThreshold(size_t dead, size_t live) {
  return dead > live / 2 + 8;
}

size_t SortedIndexOf(const std::vector<uint32_t>& ids, size_t id) {
  return static_cast<size_t>(
      std::lower_bound(ids.begin(), ids.end(), static_cast<uint32_t>(id)) -
      ids.begin());
}

}  // namespace

void ClusterWorkspace::RebuildPane() const {
  const DataMatrix& m = view_.matrix();
  const Cluster& c = view_.cluster();
  const auto& row_ids = c.row_ids();
  const auto& col_ids = c.col_ids();
  size_t n = col_ids.size();
  DC_CHECK_LE(n, kMaxPaneCols) << "cluster too wide for a packed pane";
  size_t rows = row_ids.size();
  size_t stride = n + PaneSlack(n);
  size_t row_capacity = rows + PaneSlack(rows);
  pane_.num_cols = n;
  pane_.phys_stride = stride;
  pane_.values.resize(row_capacity * stride + kRunReadPad);
  pane_.slots.resize(row_capacity * stride + kRunReadPad);
  pane_.run_len.resize(row_capacity);
  pane_.row_base.resize(row_capacity);
  pane_.row_slots.resize(rows);
  pane_.next_phys_row = rows;
  pane_.dead_rows = 0;
  for (size_t pr = 0; pr < rows; ++pr) {
    pane_.row_slots[pr] = static_cast<uint32_t>(pr);
    uint32_t i = row_ids[pr];
    pane_.run_len[pr] = static_cast<uint32_t>(
        GatherRun(m.RowValues(i).data(), m.RowMask(i).data(),
                  col_ids.data(), n, pane_.values.data() + pr * stride,
                  pane_.slots.data() + pr * stride));
    pane_.row_base[pr] = view_.stats().RowBase(i);
  }
  pane_epoch_ = epoch_;
  PaneRebuildsCounter()->Inc();
}

void ClusterWorkspace::PatchPaneRow(size_t i, bool removed) {
  PackedPane& pane = pane_;
  const auto& row_ids = view_.cluster().row_ids();  // post-toggle
  if (removed) {
    if (DeadOverThreshold(pane.dead_rows + 1, pane.row_slots.size())) {
      PaneCompactionsCounter()->Inc();
      return;
    }
    // i is absent post-toggle, so lower_bound lands on its old slot.
    size_t pr = SortedIndexOf(row_ids, i);
    pane.row_slots.erase(pane.row_slots.begin() +
                         static_cast<ptrdiff_t>(pr));
    ++pane.dead_rows;
  } else {
    if (pane.next_phys_row >= pane.run_len.size()) {
      PaneCompactionsCounter()->Inc();
      return;
    }
    // Gather the new row's run into a fresh physical row and splice its
    // slot in at the sorted logical position.
    const DataMatrix& m = view_.matrix();
    const auto& col_ids = view_.cluster().col_ids();
    size_t phys = pane.next_phys_row++;
    pane.run_len[phys] = static_cast<uint32_t>(
        GatherRun(m.RowValues(i).data(), m.RowMask(i).data(),
                  col_ids.data(), col_ids.size(),
                  pane.values.data() + phys * pane.phys_stride,
                  pane.slots.data() + phys * pane.phys_stride));
    pane.row_base[phys] = view_.stats().RowBase(i);
    size_t pr = SortedIndexOf(row_ids, i);
    pane.row_slots.insert(pane.row_slots.begin() + static_cast<ptrdiff_t>(pr),
                          static_cast<uint32_t>(phys));
  }
  pane_epoch_ = epoch_;
  PanePatchesCounter()->Inc();
}

void ClusterWorkspace::PatchPaneCol(size_t j, bool removed) {
  PackedPane& pane = pane_;
  const DataMatrix& m = view_.matrix();
  const auto& col_ids = view_.cluster().col_ids();  // post-toggle
  const auto& row_ids = view_.cluster().row_ids();
  const uint8_t* col_mask = m.ColMask(j).data();
  size_t n_old = pane.num_cols;
  // Each live row's run is updated in place, keeping it one run: the
  // moves are contiguous bytes over rows the toggle's own evaluation just
  // pulled through cache, several times cheaper than a rebuild's
  // scattered matrix gathers -- and the read side never sees
  // fragmentation. A dense row (run == whole row) only shifts its tail,
  // as its slots are implied; a holey row also renumbers the slots past
  // the toggled column. A removal frees capacity, so only an addition
  // can decline.
  if (removed) {
    // j is absent post-toggle, so lower_bound lands on its old position.
    size_t pc = SortedIndexOf(col_ids, j);
    for (size_t pr = 0; pr < row_ids.size(); ++pr) {
      size_t base = pane.row_slots[pr] * pane.phys_stride;
      double* v = pane.values.data() + base;
      uint16_t* s = pane.slots.data() + base;
      uint32_t& len = pane.run_len[pane.row_slots[pr]];
      if (len == n_old) {
        std::memmove(v + pc, v + pc + 1, (n_old - pc - 1) * sizeof(double));
        --len;
        continue;
      }
      // Entries from k on sit past column pc; with (i, j) specified the
      // first of them is (i, j) itself and is erased.
      size_t k = static_cast<size_t>(std::lower_bound(s, s + len, pc) - s);
      size_t hit = col_mask[row_ids[pr]] != 0;
      DC_DCHECK(hit == 0 || (k < len && s[k] == pc));
      std::memmove(v + k, v + k + hit, (len - k - hit) * sizeof(double));
      for (size_t t = k; t + hit < len; ++t) {
        s[t] = static_cast<uint16_t>(s[t + hit] - 1);
      }
      len -= static_cast<uint32_t>(hit);
    }
    --pane.num_cols;
  } else {
    if (n_old >= pane.phys_stride) {
      PaneCompactionsCounter()->Inc();
      return;
    }
    DC_CHECK_LT(n_old, kMaxPaneCols) << "cluster too wide for a packed pane";
    size_t pc = SortedIndexOf(col_ids, j);  // j's post-toggle position
    // Column j's entries, read stride-1 from the matrix's column-major
    // mirror.
    const double* col_values = m.ColValues(j).data();
    for (size_t pr = 0; pr < row_ids.size(); ++pr) {
      size_t base = pane.row_slots[pr] * pane.phys_stride;
      double* v = pane.values.data() + base;
      uint16_t* s = pane.slots.data() + base;
      uint32_t& len = pane.run_len[pane.row_slots[pr]];
      bool specified = col_mask[row_ids[pr]] != 0;
      double value = col_values[row_ids[pr]];
      if (len == n_old) {
        if (specified) {
          std::memmove(v + pc + 1, v + pc, (n_old - pc) * sizeof(double));
          v[pc] = value;
          ++len;
        } else {
          // The row gains its first hole: its slots start to matter.
          for (size_t t = 0; t < n_old; ++t) {
            s[t] = static_cast<uint16_t>(t < pc ? t : t + 1);
          }
        }
        continue;
      }
      // Entries from k on move one column right; with (i, j) specified
      // they also move one run position right, opening k for (i, j).
      size_t k = static_cast<size_t>(std::lower_bound(s, s + len, pc) - s);
      size_t shift = specified ? 1 : 0;
      std::memmove(v + k + shift, v + k, (len - k) * sizeof(double));
      for (size_t t = len; t > k; --t) {
        s[t - 1 + shift] = static_cast<uint16_t>(s[t - 1] + 1);
      }
      if (specified) {
        v[k] = value;
        s[k] = static_cast<uint16_t>(pc);
        ++len;
      }
    }
    ++pane.num_cols;
  }
  // A column toggle moves every row's base.
  for (size_t pr = 0; pr < row_ids.size(); ++pr) {
    pane.row_base[pane.row_slots[pr]] = view_.stats().RowBase(row_ids[pr]);
  }
  pane_epoch_ = epoch_;
  PanePatchesCounter()->Inc();
}

}  // namespace deltaclus
