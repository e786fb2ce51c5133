// Per-node rows of small entries in compressed-sparse-row form: one offset
// array and one entry array, so a table of n short rows costs two heap
// blocks instead of one per row.
//
// Two ways to fill one:
//  - in row order: reset(), then push_back each entry of row 0, close_row(),
//    the entries of row 1, close_row(), ...;
//  - by counts: sized(counts) lays out row r with counts[r] entries, which
//    the caller writes through mutable_row(r) in any order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace wcds::graph {

template <typename T>
class FlatRows {
 public:
  FlatRows() = default;

  [[nodiscard]] std::size_t row_count() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }

  [[nodiscard]] std::span<const T> operator[](std::size_t row) const {
    return {entries_.data() + offsets_[row], offsets_[row + 1] - offsets_[row]};
  }

  // Row-order filling: empties the table for rows to be appended.  The
  // hints reserve room for that many rows and entries; they only save
  // reallocations.
  void reset(std::size_t rows_hint, std::size_t entries_hint) {
    offsets_.clear();
    entries_.clear();
    offsets_.reserve(rows_hint + 1);
    entries_.reserve(entries_hint);
    offsets_.push_back(0);
  }
  void push_back(const T& entry) { entries_.push_back(entry); }
  void close_row() {
    offsets_.push_back(static_cast<std::uint32_t>(entries_.size()));
  }
  // Releases entry capacity a row-order fill left beyond its hint.
  void shrink_to_fit() { entries_.shrink_to_fit(); }

  // Counted filling: row r holds counts[r] value-initialised entries.
  [[nodiscard]] static FlatRows sized(std::span<const std::uint32_t> counts) {
    FlatRows rows;
    rows.offsets_.resize(counts.size() + 1);
    std::uint32_t total = 0;
    for (std::size_t r = 0; r < counts.size(); ++r) {
      rows.offsets_[r] = total;
      total += counts[r];
    }
    rows.offsets_.back() = total;
    rows.entries_.resize(total);
    return rows;
  }
  [[nodiscard]] std::span<T> mutable_row(std::size_t row) {
    return {entries_.data() + offsets_[row], offsets_[row + 1] - offsets_[row]};
  }

  friend bool operator==(const FlatRows&, const FlatRows&) = default;

 private:
  std::vector<std::uint32_t> offsets_;
  std::vector<T> entries_;
};

}  // namespace wcds::graph
