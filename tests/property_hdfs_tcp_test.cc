// Property sweeps for HDFS placement and the TCP connection model.
//
// HDFS invariants across (cluster size, block size, replication, file
// sizes): full coverage of bytes by blocks, replica distinctness, balanced
// placement. TCP invariants across (backlog, retry budget): connect delay
// always follows the 2^k-1 backoff lattice, and resources never leak.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <tuple>

#include "hw/profiles.h"
#include "mapreduce/hdfs.h"
#include "net/tcp.h"
#include "sim/process.h"

namespace wimpy {
namespace {

// ---- HDFS ------------------------------------------------------------------

using HdfsCase = std::tuple<int /*nodes*/, Bytes /*block*/, int /*rep*/,
                            Bytes /*file size*/>;

class HdfsProperty : public ::testing::TestWithParam<HdfsCase> {
 protected:
  void SetUp() override {
    auto [nodes, block, rep, file] = GetParam();
    fabric_ = std::make_unique<net::Fabric>(&sched_);
    for (int i = 0; i < nodes; ++i) {
      nodes_.push_back(std::make_unique<hw::ServerNode>(
          &sched_, hw::EdisonProfile(), i));
      fabric_->AddNode(nodes_.back().get(), "room");
      slaves_.push_back(nodes_.back().get());
    }
    hdfs_ = std::make_unique<mapreduce::Hdfs>(
        fabric_.get(), slaves_, mapreduce::HdfsConfig{block, rep}, 7);
  }

  sim::Scheduler sched_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<std::unique_ptr<hw::ServerNode>> nodes_;
  std::vector<hw::ServerNode*> slaves_;
  std::unique_ptr<mapreduce::Hdfs> hdfs_;
};

TEST_P(HdfsProperty, BlocksCoverFileExactly) {
  auto [nodes, block, rep, file_size] = GetParam();
  const auto& file = hdfs_->LoadFile("f", file_size);
  Bytes total = 0;
  for (const auto& b : file.blocks) {
    EXPECT_GT(b.size, 0);
    EXPECT_LE(b.size, block);
    total += b.size;
  }
  EXPECT_EQ(total, file_size);
}

TEST_P(HdfsProperty, ReplicasAreDistinctNodes) {
  auto [nodes, block, rep, file_size] = GetParam();
  const auto& file = hdfs_->LoadFile("f", file_size);
  for (const auto& b : file.blocks) {
    ASSERT_EQ(static_cast<int>(b.replica_nodes.size()), rep);
    std::set<int> unique(b.replica_nodes.begin(), b.replica_nodes.end());
    EXPECT_EQ(unique.size(), b.replica_nodes.size());
    for (int id : b.replica_nodes) {
      EXPECT_GE(id, 0);
      EXPECT_LT(id, nodes);
    }
  }
}

TEST_P(HdfsProperty, PlacementIsBalanced) {
  auto [nodes, block, rep, file_size] = GetParam();
  // Load enough files that imbalance would show.
  std::map<int, int> per_node;
  for (int f = 0; f < 8; ++f) {
    const auto& file =
        hdfs_->LoadFile(std::string("f").append(std::to_string(f)), file_size);
    for (const auto& b : file.blocks) {
      for (int id : b.replica_nodes) ++per_node[id];
    }
  }
  int min_count = 1 << 30, max_count = 0;
  for (int i = 0; i < nodes; ++i) {
    min_count = std::min(min_count, per_node[i]);
    max_count = std::max(max_count, per_node[i]);
  }
  // Round-robin placement: spread within one block's worth per node.
  EXPECT_LE(max_count - min_count, rep + 1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HdfsProperty,
    ::testing::Values(HdfsCase{4, MiB(16), 1, MiB(50)},
                      HdfsCase{4, MiB(16), 2, MiB(64)},
                      HdfsCase{8, MiB(64), 3, MiB(300)},
                      HdfsCase{35, MiB(16), 2, MiB(29)},
                      HdfsCase{2, MiB(64), 1, MiB(64)},
                      HdfsCase{3, MiB(8), 2, MiB(1)}));

// ---- TCP -------------------------------------------------------------------

class TcpBackoffProperty : public ::testing::TestWithParam<int> {};

TEST_P(TcpBackoffProperty, GiveUpDelayFollowsBackoffLattice) {
  const int retries = GetParam();
  sim::Scheduler sched;
  net::Fabric fabric(&sched);
  hw::ServerNode a(&sched, hw::DellR620Profile(), 0);
  hw::ServerNode b(&sched, hw::DellR620Profile(), 1);
  fabric.AddNode(&a, "room");
  fabric.AddNode(&b, "room");
  net::TcpConfig client_cfg;
  client_cfg.syn_max_retries = retries;
  net::TcpConfig server_cfg;
  server_cfg.listen_backlog = 0;  // drop every SYN
  net::TcpHost client(&fabric, 0, client_cfg);
  net::TcpHost server(&fabric, 1, server_cfg);

  net::ConnectResult result;
  auto proc = [&]() -> sim::Process {
    net::TcpConnection conn(&client, &server);
    result = co_await conn.Connect();
  };
  sim::Spawn(sched, proc());
  sched.Run();

  EXPECT_FALSE(result.status.ok());
  // Total wait = 1 + 2 + ... + 2^(k-1) = 2^k - 1 seconds.
  EXPECT_NEAR(result.connect_delay, std::pow(2.0, retries) - 1.0, 1e-6);
  EXPECT_EQ(result.retries, retries);
  EXPECT_EQ(server.syn_drops(), retries + 1);
  // No leaked resources: the connection object closed on scope exit.
  EXPECT_EQ(client.ports_in_use(), 0);
  EXPECT_EQ(server.connections_open(), 0);
  EXPECT_EQ(server.backlog_depth(), 0);
}

INSTANTIATE_TEST_SUITE_P(RetryBudgets, TcpBackoffProperty,
                         ::testing::Values(0, 1, 2, 3, 5));

}  // namespace
}  // namespace wimpy
