// Unit tests for the contracts layer (util/check.hpp): macro semantics, the
// one failure mode (throw util::contract_violation), and one negative
// contract test per swept module. The per-module tests double as the
// guarantee that DQN_CHECK sites are actually live in checked builds — the
// remaining negative coverage lives next to each module's own test suite
// (test_nn, test_topo, test_des, test_obs, test_more_coverage,
// test_trace_io_and_fluid).
#include <gtest/gtest.h>

#include <string>

#include "des/traffic_manager.hpp"
#include "nn/seq.hpp"
#include "topo/builders.hpp"
#include "util/check.hpp"

namespace {

using dqn::util::contract_violation;
using dqn::util::contracts_enabled;

TEST(contracts, ensure_throws_with_location_and_message) {
  const int got = 3;
  try {
    DQN_ENSURE(got == 4, "got ", got, ", want 4");
    FAIL() << "DQN_ENSURE did not throw";
  } catch (const contract_violation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test_contracts.cpp"), std::string::npos) << what;
    EXPECT_NE(what.find("ensure failed"), std::string::npos) << what;
    EXPECT_NE(what.find("got == 4"), std::string::npos) << what;
    EXPECT_NE(what.find("got 3, want 4"), std::string::npos) << what;
  }
}

TEST(contracts, ensure_passes_silently) {
  EXPECT_NO_THROW(DQN_ENSURE(1 + 1 == 2));
  EXPECT_NO_THROW(DQN_ENSURE(true, "never formatted"));
}

TEST(contracts, violation_is_a_logic_error) {
  EXPECT_THROW(DQN_ENSURE(false), std::logic_error);
}

TEST(contracts, check_respects_build_mode) {
  if (contracts_enabled) {
    EXPECT_THROW(DQN_CHECK(false, "live"), contract_violation);
  } else {
    EXPECT_NO_THROW(DQN_CHECK(false, "compiled out"));
  }
}

TEST(contracts, check_range_reports_both_values) {
  if (!contracts_enabled) GTEST_SKIP() << "DQN_CHECK_RANGE compiled out";
  const std::size_t index = 7;
  const std::size_t size = 3;
  try {
    DQN_CHECK_RANGE(index, size);
    FAIL() << "DQN_CHECK_RANGE did not throw";
  } catch (const contract_violation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("range failed"), std::string::npos) << what;
    EXPECT_NE(what.find("index = 7"), std::string::npos) << what;
    EXPECT_NE(what.find("size = 3"), std::string::npos) << what;
  }
}

TEST(contracts, check_range_rejects_negative_signed_index) {
  if (!contracts_enabled) GTEST_SKIP() << "DQN_CHECK_RANGE compiled out";
  const int index = -1;
  EXPECT_THROW(DQN_CHECK_RANGE(index, std::size_t{10}), contract_violation);
}

TEST(contracts, invariant_reports_kind) {
  if (!contracts_enabled) GTEST_SKIP() << "DQN_INVARIANT compiled out";
  try {
    DQN_INVARIANT(false, "broken");
    FAIL() << "DQN_INVARIANT did not throw";
  } catch (const contract_violation& e) {
    EXPECT_NE(std::string{e.what()}.find("invariant failed"),
              std::string::npos);
  }
}

TEST(contracts, unreachable_always_throws) {
  // DQN_UNREACHABLE is always live, whatever the build mode.
  EXPECT_THROW(DQN_UNREACHABLE("should not get here"), contract_violation);
}

TEST(contracts, disabled_macros_do_not_evaluate_operands) {
  if (contracts_enabled) GTEST_SKIP() << "checks are live in this build";
  bool evaluated = false;
  auto touch = [&evaluated] {
    evaluated = true;
    return false;
  };
  DQN_CHECK(touch(), "side effect");
  EXPECT_FALSE(evaluated);
}

// ---------------------------------------------------------------------------
// One negative contract test per swept module.
// ---------------------------------------------------------------------------

TEST(contracts_modules, nn_seq_batch_rejects_out_of_range_slice) {
  if (!contracts_enabled) GTEST_SKIP() << "DQN_CHECK compiled out";
  const dqn::nn::seq_batch batch{2, 3, 4};
  EXPECT_THROW((void)batch.time_slice(3), contract_violation);
  EXPECT_THROW((void)batch.sample(2), contract_violation);
}

TEST(contracts_modules, topo_rejects_unknown_node) {
  if (!contracts_enabled) GTEST_SKIP() << "DQN_CHECK compiled out";
  const auto topo = dqn::topo::make_line(3);
  EXPECT_THROW((void)topo.at(-1), contract_violation);
  EXPECT_THROW((void)topo.at(99), contract_violation);
  EXPECT_THROW((void)topo.link_at(99), contract_violation);
}

TEST(contracts_modules, des_rejects_unknown_queue_class) {
  if (!contracts_enabled) GTEST_SKIP() << "DQN_CHECK compiled out";
  dqn::des::tm_config cfg;
  cfg.kind = dqn::des::scheduler_kind::fifo;
  cfg.classes = 1;
  const dqn::des::traffic_manager tm{cfg};
  EXPECT_THROW((void)tm.queue_length(1), contract_violation);
}

TEST(contracts_modules, des_rejects_bad_scheduler_config_in_every_build) {
  // DQN_ENSURE path: live in Release too.
  dqn::des::tm_config cfg;
  cfg.kind = dqn::des::scheduler_kind::wrr;
  cfg.classes = 2;
  cfg.class_weights = {1.0};  // one weight short
  EXPECT_THROW(dqn::des::traffic_manager{cfg}, contract_violation);
}

}  // namespace
