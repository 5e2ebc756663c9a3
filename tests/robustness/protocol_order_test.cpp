// API misuse: calling protocol steps out of order must fail loudly with
// typed exceptions, leaving market state untouched — a downstream
// integrator's first line of defence.
#include <gtest/gtest.h>

#include "core/params.h"
#include "support/market_error_assert.h"

namespace ppms {
namespace {

TEST(ProtocolOrderTest, DecSubmitPaymentBeforeWithdrawThrows) {
  PpmsDecMarket market = make_fast_dec_market(1);
  JobOwnerSession jo = market.register_job("jo", "job", 2);
  ParticipantSession sp = market.register_labor("sp", jo);
  EXPECT_EQ(market_errc([&] { market.submit_payment(jo, sp); }),
            MarketErrc::kProtocolOrder);
}

TEST(ProtocolOrderTest, DecDeliverBeforeSubmitPaymentThrows) {
  PpmsDecMarket market = make_fast_dec_market(2);
  JobOwnerSession jo = market.register_job("jo", "job", 2);
  market.withdraw(jo);
  ParticipantSession sp = market.register_labor("sp", jo);
  market.submit_data(sp, bytes_of("r"));
  EXPECT_EQ(market_errc([&] { market.deliver_payment(sp); }),
            MarketErrc::kProtocolOrder);
}

TEST(ProtocolOrderTest, DecConfirmWithoutReportThrows) {
  PpmsDecMarket market = make_fast_dec_market(3);
  JobOwnerSession jo = market.register_job("jo", "job", 2);
  market.withdraw(jo);
  ParticipantSession sp = market.register_labor("sp", jo);
  EXPECT_EQ(market_errc([&] { market.confirm_and_release_data(sp, jo); }),
            MarketErrc::kProtocolOrder);
}

TEST(ProtocolOrderTest, DecDeliverAfterConfirmThrows) {
  // Confirmation releases the report and drops the filed payment: the MA
  // keeps no ciphertext once the SP holds its coins.
  PpmsDecMarket market = make_fast_dec_market(11);
  JobOwnerSession jo = market.register_job("jo", "job", 2);
  market.withdraw(jo);
  ParticipantSession sp = market.register_labor("sp", jo);
  market.submit_payment(jo, sp);
  market.submit_data(sp, bytes_of("r"));
  market.deliver_payment(sp);
  EXPECT_EQ(market.open_payment(sp).value, 2u);
  market.confirm_and_release_data(sp, jo);
  EXPECT_EQ(market_errc([&] { market.deliver_payment(sp); }),
            MarketErrc::kProtocolOrder);
}

TEST(ProtocolOrderTest, DecSecondConfirmThrows) {
  // The report leaves with the first confirmation: the MA keeps no copy,
  // so a fresh second confirm finds nothing on file.
  PpmsDecMarket market = make_fast_dec_market(13);
  JobOwnerSession jo = market.register_job("jo", "job", 2);
  market.withdraw(jo);
  ParticipantSession sp = market.register_labor("sp", jo);
  market.submit_payment(jo, sp);
  market.submit_data(sp, bytes_of("r"));
  market.deliver_payment(sp);
  EXPECT_EQ(market.open_payment(sp).value, 2u);
  market.confirm_and_release_data(sp, jo);
  ASSERT_EQ(jo.received_reports.size(), 1u);
  EXPECT_EQ(jo.received_reports[0], bytes_of("r"));
  EXPECT_EQ(market_errc([&] { market.confirm_and_release_data(sp, jo); }),
            MarketErrc::kProtocolOrder);
  EXPECT_EQ(jo.received_reports.size(), 1u);
}

TEST(ProtocolOrderTest, DecOpenPaymentWithoutDeliveryThrows) {
  PpmsDecMarket market = make_fast_dec_market(4);
  JobOwnerSession jo = market.register_job("jo", "job", 2);
  market.withdraw(jo);
  ParticipantSession sp = market.register_labor("sp", jo);
  // payment_ciphertext is empty: decryption must throw, not UB.
  EXPECT_THROW(market.open_payment(sp), std::exception);
}

TEST(ProtocolOrderTest, DecDoubleWithdrawDebitsTwice) {
  // Withdrawing twice is legal (a second coin) — but it costs 2^L again.
  PpmsDecMarket market = make_fast_dec_market(5);
  JobOwnerSession jo = market.register_job("jo", "job", 2);
  market.withdraw(jo);
  market.withdraw(jo);
  EXPECT_EQ(market.infra().bank.balance(jo.account.aid),
            static_cast<std::int64_t>(market.config().initial_balance) -
                2 * 8);
}

TEST(ProtocolOrderTest, DecDepositBeforeOpenIsHarmless) {
  // deposit_coins on a session with no verified coins is a no-op.
  PpmsDecMarket market = make_fast_dec_market(6);
  JobOwnerSession jo = market.register_job("jo", "job", 2);
  market.withdraw(jo);
  ParticipantSession sp = market.register_labor("sp", jo);
  market.deposit_coins(sp);
  market.settle();
  EXPECT_EQ(market.infra().bank.balance(sp.account.aid), 0);
}

TEST(ProtocolOrderTest, PbsPaymentBeforeLaborRegistrationFails) {
  PpmsPbsMarket market = make_fast_pbs_market(7);
  PbsOwnerSession jo = market.enroll_owner("jo");
  PbsParticipantSession sp = market.enroll_participant("sp");
  market.register_job(jo, "job");
  // Without labor registration the SP has no JO key and no serial: the
  // blind step must fail loudly.
  EXPECT_THROW(market.submit_payment(sp, jo), std::exception);
}

TEST(ProtocolOrderTest, PbsDeliverWithoutPaymentThrows) {
  PpmsPbsMarket market = make_fast_pbs_market(8);
  PbsOwnerSession jo = market.enroll_owner("jo");
  PbsParticipantSession sp = market.enroll_participant("sp");
  market.register_job(jo, "job");
  market.register_labor(sp, jo);
  market.submit_data(sp, bytes_of("r"));
  EXPECT_EQ(market_errc([&] { market.deliver_and_open_payment(sp); }),
            MarketErrc::kProtocolOrder);
}

TEST(ProtocolOrderTest, PbsDeliverAfterConfirmThrows) {
  PpmsPbsMarket market = make_fast_pbs_market(12);
  PbsOwnerSession jo = market.enroll_owner("jo");
  PbsParticipantSession sp = market.enroll_participant("sp");
  market.register_job(jo, "job");
  market.register_labor(sp, jo);
  market.submit_payment(sp, jo);
  market.submit_data(sp, bytes_of("r"));
  ASSERT_TRUE(market.deliver_and_open_payment(sp));
  EXPECT_EQ(market.confirm_and_release_data(sp), bytes_of("r"));
  EXPECT_EQ(market_errc([&] { market.deliver_and_open_payment(sp); }),
            MarketErrc::kProtocolOrder);
}

TEST(ProtocolOrderTest, PbsSecondConfirmThrows) {
  PpmsPbsMarket market = make_fast_pbs_market(14);
  PbsOwnerSession jo = market.enroll_owner("jo");
  PbsParticipantSession sp = market.enroll_participant("sp");
  market.register_job(jo, "job");
  market.register_labor(sp, jo);
  market.submit_payment(sp, jo);
  market.submit_data(sp, bytes_of("r"));
  ASSERT_TRUE(market.deliver_and_open_payment(sp));
  EXPECT_EQ(market.confirm_and_release_data(sp), bytes_of("r"));
  EXPECT_EQ(market_errc([&] { market.confirm_and_release_data(sp); }),
            MarketErrc::kProtocolOrder);
}

TEST(ProtocolOrderTest, PbsDepositWithoutCoinIsRejectedAtBank) {
  PpmsPbsMarket market = make_fast_pbs_market(9);
  PbsOwnerSession jo = market.enroll_owner("jo");
  PbsParticipantSession sp = market.enroll_participant("sp");
  market.register_job(jo, "job");
  market.register_labor(sp, jo);
  // sp.coin is empty: the deposit message fails verification at the MA
  // and nothing is credited.
  market.deposit(sp);
  market.settle();
  EXPECT_EQ(market.infra().bank.balance(sp.account.aid), 0);
  EXPECT_EQ(market.used_serials(), 0u);
}

TEST(ProtocolOrderTest, FailedStepLeavesMarketUsable) {
  PpmsDecMarket market = make_fast_dec_market(10);
  JobOwnerSession jo = market.register_job("jo", "job", 3);
  ParticipantSession sp = market.register_labor("sp", jo);
  EXPECT_EQ(market_errc([&] { market.submit_payment(jo, sp); }),
            MarketErrc::kProtocolOrder);
  // Recover: withdraw and run the round to completion.
  market.withdraw(jo);
  market.submit_payment(jo, sp);
  market.submit_data(sp, bytes_of("r"));
  market.deliver_payment(sp);
  EXPECT_EQ(market.open_payment(sp).value, 3u);
}

}  // namespace
}  // namespace ppms
