// support::Deadline semantics pins: a default deadline never expires, the
// check-counted deadline trips on exactly the (n+1)-th poll and then stays
// latched, and copies (constructed or assigned) snapshot the latch and the
// poll budget.
#include <gtest/gtest.h>

#include "support/deadline.hpp"

namespace cdcs::support {
namespace {

TEST(Deadline, DefaultIsUnlimitedAndNeverExpires) {
  Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_FALSE(d.latched());
}

TEST(Deadline, ExpireAfterChecksCountsPolls) {
  Deadline d = Deadline::expire_after_checks(2);
  EXPECT_FALSE(d.unlimited());
  EXPECT_FALSE(d.expired());  // poll 1
  EXPECT_FALSE(d.expired());  // poll 2
  EXPECT_TRUE(d.expired());   // poll 3 trips
  EXPECT_TRUE(d.latched());
  EXPECT_TRUE(d.expired());   // latched forever
}

TEST(Deadline, CopyOfLatchedDeadlineStaysLatched) {
  Deadline d = Deadline::expire_after_checks(0);
  const Deadline unpolled = d;  // snapshots the untouched budget
  EXPECT_TRUE(d.expired());
  Deadline copy = d;
  EXPECT_TRUE(copy.latched());
  EXPECT_TRUE(copy.expired());
  EXPECT_FALSE(copy.unlimited());
  Deadline assigned;
  assigned = d;
  EXPECT_TRUE(assigned.latched());
  // A copy made before the latch keeps its own budget: the original's
  // polls never reach it, and its own first poll trips it.
  EXPECT_FALSE(unpolled.latched());
  EXPECT_TRUE(unpolled.expired());
}

}  // namespace
}  // namespace cdcs::support
