// Unit tests for the structured-diagnostic primitives (support/status.hpp)
// and the cooperative deadline (support/deadline.hpp) that the resilience
// layer is built on.
#include <gtest/gtest.h>

#include "support/deadline.hpp"
#include "support/status.hpp"

namespace cdcs::support {
namespace {

TEST(Status, DefaultIsOk) {
  const Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kOk);
  EXPECT_EQ(s.to_string(), "ok");
  EXPECT_TRUE(Status::Ok().ok());
}

TEST(Status, FactoriesCarryCodeMessageAndLocation) {
  const Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), ErrorCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_NE(std::string(s.file()).find("test_status.cpp"), std::string::npos);
  EXPECT_GT(s.line(), 0);

  EXPECT_EQ(Status::InvalidInput("x").code(), ErrorCode::kInvalidInput);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(Status::Infeasible("x").code(), ErrorCode::kInfeasible);
  EXPECT_EQ(Status::Internal("x").code(), ErrorCode::kInternal);
  // An "error" with an OK code is a bug; it is coerced to internal rather
  // than minted as a success.
  EXPECT_EQ(Status::Error(ErrorCode::kOk, "x").code(), ErrorCode::kInternal);
}

TEST(Status, ExitCodesAreStable) {
  EXPECT_EQ(exit_code(ErrorCode::kOk), 0);
  EXPECT_EQ(exit_code(ErrorCode::kParseError), 3);
  EXPECT_EQ(exit_code(ErrorCode::kInvalidInput), 4);
  EXPECT_EQ(exit_code(ErrorCode::kDeadlineExceeded), 5);
  EXPECT_EQ(exit_code(ErrorCode::kInfeasible), 6);
  EXPECT_EQ(exit_code(ErrorCode::kInternal), 7);
}

TEST(Status, ContextChainsRenderOutermostFirst) {
  Status s = Status::ParseError("line 3: bad bandwidth");
  s.add_context("reading 'x.graph'");
  Status outer = std::move(s).with_context("synthesize");
  ASSERT_EQ(outer.context().size(), 2u);
  // Stored innermost-first...
  EXPECT_EQ(outer.context()[0], "reading 'x.graph'");
  EXPECT_EQ(outer.context()[1], "synthesize");
  // ...rendered outermost-first, like a call stack unwinding.
  const std::string rendered = outer.to_string();
  EXPECT_NE(rendered.find("[parse-error] synthesize: reading 'x.graph': "
                          "line 3: bad bandwidth"),
            std::string::npos)
      << rendered;
}

TEST(Status, ContextOnOkStatusIsIgnored) {
  Status s;
  s.add_context("should not stick");
  EXPECT_TRUE(s.context().empty());
  EXPECT_EQ(s.to_string(), "ok");
}

TEST(Expected, HoldsValueOrStatus) {
  Expected<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good.status().ok());
  EXPECT_EQ(*good, 42);
  EXPECT_EQ(good.value(), 42);

  Expected<int> bad(Status::Infeasible("no cover"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kInfeasible);
  EXPECT_EQ(std::move(Expected<int>(Status::Infeasible("no cover")))
                .value_or(-1),
            -1);
}

TEST(Expected, ValueThrowsStatusErrorCarryingTheStatus) {
  Expected<int> bad(Status::InvalidInput("NaN bandwidth"));
  try {
    (void)bad.value();
    FAIL() << "value() on an error must throw";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), ErrorCode::kInvalidInput);
    EXPECT_NE(std::string(e.what()).find("NaN bandwidth"), std::string::npos);
  }
}

TEST(Expected, TakeStatusSupportsContextPropagation) {
  Expected<int> bad(Status::ParseError("line 1: junk"));
  const Status s = std::move(bad).take_status().with_context("reading lib");
  EXPECT_EQ(s.code(), ErrorCode::kParseError);
  ASSERT_EQ(s.context().size(), 1u);
  EXPECT_EQ(s.context()[0], "reading lib");
}

TEST(Expected, ConstructingFromOkStatusIsAnInternalError) {
  Expected<int> bogus((Status()));
  ASSERT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.status().code(), ErrorCode::kInternal);
}

TEST(Deadline, NeverIsUnlimitedAndNeverExpires) {
  const Deadline d = Deadline::never();
  EXPECT_TRUE(d.unlimited());
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.remaining_ms(), std::numeric_limits<double>::infinity());
}

TEST(Deadline, ZeroBudgetExpiresOnFirstPoll) {
  const Deadline d = Deadline::after_ms(0.0);
  EXPECT_FALSE(d.unlimited());
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_ms(), 0.0);
}

TEST(Deadline, ExpireAfterChecksCountsPollsDeterministically) {
  const Deadline d = Deadline::expire_after_checks(2);
  EXPECT_FALSE(d.unlimited());
  EXPECT_FALSE(d.expired());  // poll 1
  EXPECT_FALSE(d.expired());  // poll 2
  EXPECT_TRUE(d.expired());   // poll 3 = the (n+1)-th
}

TEST(Deadline, ExpiryLatches) {
  const Deadline d = Deadline::expire_after_checks(0);
  EXPECT_TRUE(d.expired());
  // Once expired, always expired -- later stages can trust earlier ones.
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_ms(), 0.0);
}

}  // namespace
}  // namespace cdcs::support
