// Self-time spans for the traced benchmark run.
//
// A Span brackets one call into a layer's public function.  On close it
// charges its duration, minus the time its nested spans covered, to its
// layer on the calling thread's lane.  Lanes are per thread because the
// partitioned engine runs handlers on worker threads; totals() folds them
// while the world is idle between run steps, so lanes need no atomics.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace e2e {

enum Layer : std::uint8_t { kFrontend, kOqs, kIqs, kQuorum, kLayers };

struct LayerTotals {
  std::array<std::uint64_t, kLayers> self_ns{};
  std::array<std::uint64_t, kLayers> calls{};
};

class SpanLanes {
 public:
  static SpanLanes& instance() {
    static SpanLanes lanes;
    return lanes;
  }

  LayerTotals& lane() {
    thread_local LayerTotals* mine = nullptr;
    if (mine == nullptr) {
      const std::lock_guard<std::mutex> lock(mu_);
      lanes_.push_back(std::make_unique<LayerTotals>());
      mine = lanes_.back().get();
    }
    return *mine;
  }

  // Call only while no traced code runs (between world run steps).
  LayerTotals totals() {
    const std::lock_guard<std::mutex> lock(mu_);
    LayerTotals sum;
    for (const auto& l : lanes_) {
      for (std::size_t i = 0; i < kLayers; ++i) {
        sum.self_ns[i] += l->self_ns[i];
        sum.calls[i] += l->calls[i];
      }
    }
    return sum;
  }

  void reset() {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& l : lanes_) *l = LayerTotals{};
  }

 private:
  SpanLanes() = default;
  std::mutex mu_;  // guards lanes_ (the vector, not the lane contents)
  std::vector<std::unique_ptr<LayerTotals>> lanes_;
};

class Span {
 public:
  explicit Span(Layer layer)
      : layer_(layer), parent_(current()), start_(Clock::now()) {
    current() = this;
  }
  ~Span() {
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
    LayerTotals& lane = SpanLanes::instance().lane();
    lane.self_ns[layer_] += ns > child_ns_ ? ns - child_ns_ : 0;
    ++lane.calls[layer_];
    if (parent_ != nullptr) parent_->child_ns_ += ns;
    current() = parent_;
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  using Clock = std::chrono::steady_clock;
  static Span*& current() {
    thread_local Span* top = nullptr;
    return top;
  }

  Layer layer_;
  Span* parent_;
  std::uint64_t child_ns_ = 0;
  Clock::time_point start_;
};

}  // namespace e2e
