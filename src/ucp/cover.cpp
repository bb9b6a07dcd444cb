#include "ucp/cover.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace cdcs::ucp {

std::string_view to_string(CoverStop stop) {
  switch (stop) {
    case CoverStop::kCompleted:
      return "completed";
    case CoverStop::kNodeBudget:
      return "node_budget";
    case CoverStop::kDeadline:
      return "deadline";
    case CoverStop::kAborted:
      return "aborted";
  }
  return "unknown";
}

std::size_t CoverProblem::add_column(const std::vector<std::size_t>& rows,
                                     double weight) {
  if (weight < 0.0) {
    throw std::invalid_argument("CoverProblem: negative column weight");
  }
  Column col{Bitset(num_rows_), weight};
  for (std::size_t r : rows) {
    if (r >= num_rows_) {
      throw std::out_of_range("CoverProblem: row index out of range");
    }
    col.rows.set(r);
  }
  if (col.rows.none()) {
    throw std::invalid_argument("CoverProblem: column covers no rows");
  }
  columns_.push_back(std::move(col));
  row_cover_valid_ = false;
  return columns_.size() - 1;
}

const Bitset& CoverProblem::row_cover(std::size_t r) const {
  if (!row_cover_valid_) {
    row_cover_.assign(num_rows_, Bitset(columns_.size()));
    for (std::size_t j = 0; j < columns_.size(); ++j) {
      columns_[j].rows.for_each(
          [&](std::size_t row) { row_cover_[row].set(j); });
    }
    row_cover_valid_ = true;
  }
  return row_cover_.at(r);
}

bool CoverProblem::feasible() const {
  Bitset covered(num_rows_);
  for (const Column& c : columns_) covered.unite(c.rows);
  return covered.count() == num_rows_;
}

double CoverProblem::cost_of(const std::vector<std::size_t>& chosen) const {
  double total = 0.0;
  for (std::size_t j : chosen) total += columns_.at(j).weight;
  return total;
}

bool CoverProblem::covers_all(const std::vector<std::size_t>& chosen) const {
  Bitset covered(num_rows_);
  for (std::size_t j : chosen) covered.unite(columns_.at(j).rows);
  return covered.count() == num_rows_;
}

double optimality_gap(double achieved, double lower_bound) {
  if (lower_bound <= 0.0 || achieved <= lower_bound) return 0.0;
  return (achieved - lower_bound) / lower_bound;
}

double independent_rows_lower_bound(const CoverProblem& problem) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  double bound = 0.0;
  std::vector<char> blocked(problem.num_columns(), 0);
  for (std::size_t r = 0; r < problem.num_rows(); ++r) {
    double cheapest = kInf;
    bool independent = true;
    for (std::size_t j = 0; j < problem.num_columns(); ++j) {
      if (!problem.column(j).rows.test(r)) continue;
      if (blocked[j]) independent = false;
      cheapest = std::min(cheapest, problem.column(j).weight);
    }
    if (independent && cheapest < kInf) {
      bound += cheapest;
      for (std::size_t j = 0; j < problem.num_columns(); ++j) {
        if (problem.column(j).rows.test(r)) blocked[j] = 1;
      }
    }
  }
  return bound;
}

}  // namespace cdcs::ucp
