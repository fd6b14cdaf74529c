#include "bsp/trace.hpp"

#include <algorithm>

namespace nobl {

DegreeAccumulator::DegreeAccumulator(unsigned log_v)
    : log_v_(log_v),
      v_(std::uint64_t{1} << log_v),
      sent_(2 * v_, 0),
      recv_(2 * v_, 0),
      split_(v_, 0),
      active_(2 * v_, 0) {}

bool DegreeAccumulator::open_range(unsigned label, std::uint64_t first,
                                   std::uint64_t last) {
  // label >= log_v only on M(1), whose messages are all self-messages.
  if (first >= last || label >= log_v_) return false;
  const unsigned shift = log_v_ - label;  // i-clusters hold 2^shift VPs
  const std::uint64_t lo = (first >> shift) << shift;
  const std::uint64_t hi = (((last - 1) >> shift) + 1) << shift;
  if (2 * (last - first) < hi - lo) return false;
  ranged_ = true;
  range_label_ = label;
  range_lo_ = lo;
  range_hi_ = hi;
  return true;
}

void DegreeAccumulator::absorb(DegreeAccumulator& other) {
  if (other.log_v_ != log_v_) {
    throw std::invalid_argument("DegreeAccumulator::absorb: fold mismatch");
  }
  if (ranged_ || other.ranged_) {
    throw std::logic_error("DegreeAccumulator::absorb: range mode");
  }
  local_ += other.local_;
  other.local_ = 0;
  // Leaves carry the send/receive counts, internal nodes the split counts;
  // every nonzero split lies on a path from a touched leaf to the root.
  other.walk_touched(
      [&](std::uint64_t n, unsigned j) {
        if (j == log_v_) {
          touch(n);
          sent_[n] += other.sent_[n];
          recv_[n] += other.recv_[n];
          other.sent_[n] = 0;
          other.recv_[n] = 0;
        } else {
          split_[n] += other.split_[n];
          other.split_[n] = 0;
        }
      },
      [](unsigned) {});
}

void DegreeAccumulator::finalize_into(SuperstepRecord& record) {
  if (record.degree.size() != static_cast<std::size_t>(log_v_) + 1) {
    throw std::invalid_argument(
        "DegreeAccumulator::finalize_into: degree vector size mismatch");
  }
  if (ranged_) {
    sweep_range(record);
    return;
  }
  // Level j's S and R are complete once the level below has been added in:
  // take their peak, hand them to the parents, zero the node. The root's
  // S and R are exactly zero (no message leaves the machine), so it adds
  // nothing to the unused slot 0. The leaves' S also sum to the superstep's
  // crossing messages.
  std::uint64_t messages = local_;
  std::uint64_t peak = 0;
  walk_touched(
      [&](std::uint64_t n, unsigned j) {
        std::uint64_t s = sent_[n];
        std::uint64_t r = recv_[n];
        sent_[n] = 0;
        recv_[n] = 0;
        if (j == log_v_) {
          messages += s;
        } else {
          s -= split_[n];
          r -= split_[n];
          split_[n] = 0;
        }
        peak = std::max(peak, std::max(s, r));
        sent_[n >> 1] += s;
        recv_[n >> 1] += r;
      },
      [&](unsigned j) {
        if (j != 0) record.degree[j] = peak;
        peak = 0;
      });
  record.messages = messages;
  local_ = 0;
}

void DegreeAccumulator::sweep_range(SuperstepRecord& record) {
  // Level j holds nodes [a, b): the leaves of [lo, hi) first, then their
  // ancestors. lo and hi are multiples of the i-cluster size, so every
  // level down to the i-clusters (level range_label_) is a whole range.
  std::uint64_t a = v_ + range_lo_;
  std::uint64_t b = v_ + range_hi_;
  std::uint64_t messages = local_;
  std::uint64_t peak = 0;
  for (std::uint64_t n = a; n < b; ++n) {
    messages += sent_[n];
    peak = std::max(peak, std::max(sent_[n], recv_[n]));
  }
  record.degree[log_v_] = peak;
  for (unsigned j = log_v_; j > range_label_; --j) {
    // Build level j - 1 from level j, zeroing level j on the way. At the
    // i-clusters (j - 1 == range_label_) S and R come out exactly zero: no
    // message leaves an i-cluster.
    a >>= 1;
    b >>= 1;
    peak = 0;
    for (std::uint64_t n = a; n < b; ++n) {
      const std::uint64_t s = sent_[2 * n] + sent_[2 * n + 1] - split_[n];
      const std::uint64_t r = recv_[2 * n] + recv_[2 * n + 1] - split_[n];
      sent_[2 * n] = 0;
      sent_[2 * n + 1] = 0;
      recv_[2 * n] = 0;
      recv_[2 * n + 1] = 0;
      split_[n] = 0;
      sent_[n] = s;
      recv_[n] = r;
      peak = std::max(peak, std::max(s, r));
    }
    record.degree[j - 1] = j - 1 > range_label_ ? peak : 0;
  }
  // Folds at or below the label keep every message local.
  for (unsigned j = 1; j < range_label_; ++j) record.degree[j] = 0;
  record.messages = messages;
  local_ = 0;
  ranged_ = false;
}

void Trace::append(SuperstepRecord record) {
  if (record.degree.size() != static_cast<std::size_t>(log_v_) + 1) {
    throw std::invalid_argument("Trace::append: degree vector size mismatch");
  }
  if (record.label >= label_bound()) {
    throw std::invalid_argument("Trace::append: label out of range");
  }
  if (record.degree[0] != 0) {
    throw std::invalid_argument("Trace::append: nonzero degree at fold p=1");
  }
  total_messages_ += record.messages;
  max_label_ = std::max(max_label_, record.label);
  cache_valid_ = false;
  steps_.push_back(std::move(record));
}

void Trace::ensure_cache() const {
  if (cache_valid_) return;
  const unsigned bound = label_bound();
  const std::size_t folds = static_cast<std::size_t>(log_v_) + 1;
  label_F_.assign(bound * folds, 0);
  label_peak_.assign(bound * folds, 0);
  label_S_.assign(bound, 0);
  for (const auto& s : steps_) {
    const std::size_t base = s.label * folds;
    ++label_S_[s.label];
    for (std::size_t j = 0; j < folds; ++j) {
      label_F_[base + j] += s.degree[j];
      label_peak_[base + j] = std::max(label_peak_[base + j], s.degree[j]);
    }
  }
  cum_F_.assign((bound + 1) * folds, 0);
  cum_S_.assign(bound + 1, 0);
  for (unsigned i = 0; i < bound; ++i) {
    cum_S_[i + 1] = cum_S_[i] + label_S_[i];
    for (std::size_t j = 0; j < folds; ++j) {
      cum_F_[(i + 1) * folds + j] =
          cum_F_[i * folds + j] + label_F_[i * folds + j];
    }
  }
  cache_valid_ = true;
}

std::uint64_t Trace::S(unsigned label) const {
  ensure_cache();
  return label < label_bound() ? label_S_[label] : 0;
}

std::uint64_t Trace::F(unsigned label, unsigned log_p) const {
  check_log_p(log_p);
  ensure_cache();
  if (label >= label_bound()) return 0;
  return label_F_[label * (static_cast<std::size_t>(log_v_) + 1) + log_p];
}

std::uint64_t Trace::total_F(unsigned log_p) const {
  return partial_F(log_p, log_p);
}

std::uint64_t Trace::partial_F(unsigned label_bound, unsigned log_p) const {
  check_log_p(log_p);
  ensure_cache();
  const unsigned clamped = std::min(label_bound, this->label_bound());
  return cum_F_[clamped * (static_cast<std::size_t>(log_v_) + 1) + log_p];
}

std::uint64_t Trace::total_S(unsigned log_p) const {
  check_log_p(log_p);
  ensure_cache();
  return cum_S_[std::min(log_p, label_bound())];
}

std::uint64_t Trace::peak_degree(unsigned label, unsigned log_p) const {
  check_log_p(log_p);
  ensure_cache();
  if (label >= label_bound()) return 0;
  return label_peak_[label * (static_cast<std::size_t>(log_v_) + 1) + log_p];
}

}  // namespace nobl
