// The fusion coordinator driven directly: a scripted clock and in-line
// workers running the shared shard kernels — no sockets, threads or sim.
// Hung workers, lost workers and bad replies recover through the same
// deadline/resend/requeue policy both adapters use, and the composite stays
// the exact bytes of fuse_parallel with the same tile and shard counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/distributed/coordinator.h"
#include "core/distributed/shard_ops.h"
#include "core/parallel/parallel_pct.h"
#include "hsi/scene.h"

namespace rif::core::distributed {
namespace {

constexpr double kDeadline = 1.0;
constexpr double kBackoff = 2.0;

hsi::Scene test_scene() {
  hsi::SceneConfig cfg;
  cfg.width = 32;
  cfg.height = 32;
  cfg.bands = 16;
  cfg.seed = 77;
  return hsi::generate_scene(cfg);
}

CoordinatorParams job_params(const hsi::ImageCube& cube, int tiles) {
  CoordinatorParams p;
  p.shape = {cube.width(), cube.height(), cube.bands()};
  p.cube = &cube;
  p.total_tiles = tiles;
  p.shard_deadline_seconds = kDeadline;
  p.resend_backoff = kBackoff;
  p.resend_limit = 3;
  return p;
}

std::vector<int> worker_ids(int n) {
  std::vector<int> ids;
  for (int w = 0; w < n; ++w) ids.push_back(w);
  return ids;
}

/// How a scripted worker misbehaves.
enum class Fault {
  kNone,
  kHang,         ///< asks for work once, then answers nothing
  kLoseAtShard,  ///< the worker is lost when its covariance shard arrives
  kWrongMean,    ///< answers shards with a sum against a perturbed mean
  kWrongDims,    ///< answers shards with a sum of one band too many
  kWrongCount,   ///< answers shards with a sum over one member too few
};

/// One message the coordinator sent, as the script saw it.
struct Sent {
  double time = 0.0;
  int worker = 0;
  std::uint32_t type = 0;
  int item = -1;
  std::vector<std::uint8_t> payload;

  bool operator==(const Sent&) const = default;
};

/// Plays every worker in-line. Sends are delivered FIFO; a healthy worker
/// prefetches (requests its next tile before screening, like the real
/// ones), screens, sums and colours with the shared kernels. The clock
/// moves only when nothing is in flight: it jumps to the next armed
/// deadline and ticks the coordinator.
class Script {
 public:
  Script(Coordinator& c, int bands, double threshold,
         std::map<int, Fault> faults)
      : c_(c), bands_(bands), threshold_(threshold),
        faults_(std::move(faults)) {}

  void run() {
    for (const int w : c_.live_workers()) c_.request_work(w, now_);
    while (true) {
      pump();
      if (c_.done() || c_.failed()) return;
      const auto next = c_.next_deadline();
      if (!next) return;  // wedged: nothing owed has a deadline
      now_ = *next;
      c_.tick(now_);
    }
  }

  [[nodiscard]] const std::vector<Sent>& sent() const { return sent_; }

  /// Send times of one item, in order.
  [[nodiscard]] std::vector<double> times(std::uint32_t type,
                                          int item) const {
    std::vector<double> t;
    for (const Sent& s : sent_) {
      if (s.type == type && s.item == item) t.push_back(s.time);
    }
    return t;
  }

 private:
  struct Worker {
    std::map<int, TileAssignMsg> tiles;
    std::set<int> colored;
    std::optional<TransformMsg> transform;
    bool lost = false;
  };

  [[nodiscard]] Fault fault(int w) const {
    auto it = faults_.find(w);
    return it == faults_.end() ? Fault::kNone : it->second;
  }

  void collect() {
    for (auto& s : c_.take_sends()) {
      sent_.push_back({now_, s.worker, s.msg.type, s.item, s.msg.payload});
      inbox_.push_back(std::move(s));
    }
  }

  void pump() {
    collect();
    while (!inbox_.empty()) {
      const Send s = std::move(inbox_.front());
      inbox_.pop_front();
      deliver(s);
      collect();
    }
  }

  void color(int w, int t) {
    Worker& worker = workers_[w];
    if (!worker.transform || worker.colored.contains(t)) return;
    const TileAssignMsg& held = worker.tiles.at(t);
    worker.colored.insert(t);
    c_.color_tile(w, color_shard(held.tile, held.data.data(),
                                 *worker.transform)
                         .encode(0));
  }

  void deliver(const Send& s) {
    Worker& worker = workers_[s.worker];
    if (worker.lost || fault(s.worker) == Fault::kHang) return;
    switch (s.msg.type) {
      case kTileAssign: {
        TileAssignMsg assign = TileAssignMsg::decode(s.msg);
        const int t = assign.tile.index;
        c_.request_work(s.worker, now_);
        const ScreenResultMsg r =
            screen_shard(assign.tile, assign.data.data(), threshold_);
        worker.tiles[t] = std::move(assign);
        worker.colored.erase(t);
        c_.screen_result(s.worker, r.encode(0), now_);
        color(s.worker, t);
        break;
      }
      case kCovShard:
        answer_shard(s.worker, CovShardMsg::decode(s.msg));
        break;
      case kTransform:
        worker.transform = TransformMsg::decode(s.msg);
        for (const auto& [t, held] : worker.tiles) color(s.worker, t);
        break;
      default:
        break;  // kNoMoreTiles
    }
  }

  void answer_shard(int w, CovShardMsg shard) {
    CovSumMsg sum;
    switch (fault(w)) {
      case Fault::kLoseAtShard:
        workers_[w].lost = true;
        c_.worker_lost(w, now_);
        return;
      case Fault::kWrongMean:
        shard.mean[0] = std::nextafter(shard.mean[0], 1e9);
        sum = cov_shard_sum(shard, bands_);
        break;
      case Fault::kWrongDims: {
        std::vector<double> mean = shard.mean;
        mean.push_back(0.0);
        linalg::CovarianceAccumulator acc(bands_ + 1, mean);
        std::vector<float> member(static_cast<std::size_t>(bands_) + 1, 0.f);
        for (std::uint64_t i = 0; i < shard.shard_count; ++i) {
          std::copy_n(shard.vectors.begin() + i * bands_, bands_,
                      member.begin());
          acc.add(member);
        }
        sum.shard_index = shard.shard_index;
        sum.accumulator = acc.encode();
        break;
      }
      case Fault::kWrongCount:
        if (shard.shard_count > 0) {
          --shard.shard_count;
          shard.vectors.resize(shard.vectors.size() - bands_);
        }
        sum = cov_shard_sum(shard, bands_);
        break;
      default:
        sum = cov_shard_sum(shard, bands_);
    }
    c_.cov_sum(w, sum.encode(0), now_);
  }

  Coordinator& c_;
  int bands_;
  double threshold_;
  std::map<int, Fault> faults_;
  std::map<int, Worker> workers_;
  std::deque<Send> inbox_;
  std::vector<Sent> sent_;
  double now_ = 0.0;
};

PctResult reference(const hsi::ImageCube& cube, int shards, int tiles) {
  ParallelPctConfig cfg;
  cfg.threads = shards;  // fixes the covariance shard count
  cfg.tiles = tiles;
  return fuse_parallel(cube, cfg);
}

void expect_matches_reference(const CoordinatorResult& r,
                              const hsi::ImageCube& cube, int shards,
                              int tiles) {
  const PctResult ref = reference(cube, shards, tiles);
  EXPECT_EQ(r.composite.data, ref.composite.data);
  EXPECT_EQ(r.unique_set_size, ref.unique_set_size);
  ASSERT_EQ(r.eigenvalues.size(), ref.eigenvalues.size());
  for (std::size_t i = 0; i < ref.eigenvalues.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.eigenvalues[i], ref.eigenvalues[i]);
  }
}

/// Each resend of an item waits out a deadline grown by the backoff per
/// expiry: the k-th resend comes kDeadline * kBackoff^(k-1) after the
/// send before it. Returns the largest resend count of any item.
int expect_backed_off(const Script& script, std::uint32_t type, int items) {
  int most = 0;
  for (int i = 0; i < items; ++i) {
    const std::vector<double> t = script.times(type, i);
    for (std::size_t k = 1; k < t.size(); ++k) {
      EXPECT_DOUBLE_EQ(t[k] - t[k - 1],
                       kDeadline * std::pow(kBackoff, double(k) - 1.0))
          << "type " << type << " item " << i << " resend " << k;
    }
    most = std::max(most, static_cast<int>(t.size()) - 1);
  }
  return most;
}

TEST(CoordinatorTest, HungWorkersTileAndShardAreResentAfterBackedOffDeadlines) {
  const auto scene = test_scene();
  const int tiles = 8;
  CoordinatorResult r;
  Coordinator c(job_params(scene.cube, tiles), worker_ids(4), r);
  Script script(c, 16, 0.05, {{2, Fault::kHang}, {3, Fault::kHang}});
  script.run();
  ASSERT_TRUE(c.done());

  EXPECT_GE(r.tiles_resent, 1);
  EXPECT_GE(r.shards_resent, 1);
  EXPECT_EQ(r.deadline_giveups, 0);
  EXPECT_EQ(r.worker_disconnects, 0);
  // Nothing is re-sent before its deadline, and the deadline grows per
  // expiry: a shard re-sent from one hung worker to the other waits twice
  // as long the second time.
  EXPECT_GE(expect_backed_off(script, kTileAssign, tiles), 1);
  EXPECT_GE(expect_backed_off(script, kCovShard, r.shards), 2);
  // A resend never goes back to the worker it is taken from.
  for (int s = 0; s < r.shards; ++s) {
    int last = -1;
    for (const Sent& sent : script.sent()) {
      if (sent.type != kCovShard || sent.item != s) continue;
      EXPECT_NE(sent.worker, last);
      last = sent.worker;
    }
  }
  expect_matches_reference(r, scene.cube, 4, tiles);
}

TEST(CoordinatorTest, ExhaustedResendBudgetFails) {
  const auto scene = test_scene();
  CoordinatorParams p = job_params(scene.cube, 4);
  p.resend_limit = 2;
  CoordinatorResult r;
  Coordinator c(p, worker_ids(1), r);
  Script script(c, 16, 0.05, {{0, Fault::kHang}});
  script.run();
  EXPECT_FALSE(c.done());
  EXPECT_TRUE(c.failed());
  EXPECT_EQ(r.deadline_giveups, 1);
  EXPECT_EQ(r.tiles_resent, 2);
  // Sent once, re-sent at +1 s and +2 s; the third expiry (+4 s) gives up.
  EXPECT_EQ(script.times(kTileAssign, 0), (std::vector<double>{0, 1, 3}));
}

TEST(CoordinatorTest, LostWorkerRequeuesItsTilesAndShard) {
  const auto scene = test_scene();
  const int tiles = 6;
  CoordinatorResult r;
  Coordinator c(job_params(scene.cube, tiles), worker_ids(3), r);
  Script script(c, 16, 0.05, {{1, Fault::kLoseAtShard}});
  script.run();
  ASSERT_TRUE(c.done());

  EXPECT_EQ(r.worker_disconnects, 1);
  EXPECT_GE(r.tiles_requeued, 1);
  EXPECT_EQ(r.shards, 3);  // frozen at start, despite the loss
  // Requeue is immediate, not a deadline resend.
  EXPECT_EQ(r.tiles_resent + r.shards_resent, 0);
  EXPECT_EQ(c.live_workers(), (std::vector<int>{0, 2}));
  EXPECT_EQ(script.times(kCovShard, 1).size(), 2u);
  for (const Sent& s : script.sent()) {
    if (s.type == kTransform) {
      EXPECT_NE(s.worker, 1);
    }
  }
  expect_matches_reference(r, scene.cube, 3, tiles);
}

TEST(CoordinatorTest, MismatchedCovarianceSumsAreRefusedAndResent) {
  const auto scene = test_scene();
  for (const Fault f :
       {Fault::kWrongMean, Fault::kWrongDims, Fault::kWrongCount}) {
    CoordinatorResult r;
    Coordinator c(job_params(scene.cube, 6), worker_ids(3), r);
    Script script(c, 16, 0.05, {{2, f}});
    script.run();
    ASSERT_TRUE(c.done()) << static_cast<int>(f);
    EXPECT_GE(r.shards_resent, 1) << static_cast<int>(f);
    expect_matches_reference(r, scene.cube, 3, 6);
  }
}

TEST(CoordinatorTest, SameScriptSameActions) {
  const auto scene = test_scene();
  const auto run = [&] {
    CoordinatorResult r;
    Coordinator c(job_params(scene.cube, 8), worker_ids(4), r);
    Script script(c, 16, 0.05,
                  {{1, Fault::kLoseAtShard}, {3, Fault::kHang}});
    script.run();
    EXPECT_TRUE(c.done());
    return script.sent();
  };
  const std::vector<Sent> a = run();
  const std::vector<Sent> b = run();
  EXPECT_GT(a.size(), 20u);
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace rif::core::distributed
