#include "isa/condition.h"

#include <gtest/gtest.h>

namespace usca::isa {
namespace {

flags make_flags(bool n, bool z, bool c, bool v) {
  flags f;
  f.n = n;
  f.z = z;
  f.c = c;
  f.v = v;
  return f;
}

struct condition_case {
  condition cond;
  flags f;
  bool expected;
};

class ConditionTest : public ::testing::TestWithParam<condition_case> {};

TEST_P(ConditionTest, Evaluates) {
  const condition_case& c = GetParam();
  EXPECT_EQ(condition_passes(c.cond, c.f), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllConditions, ConditionTest,
    ::testing::Values(
        condition_case{condition::eq, make_flags(false, true, false, false), true},
        condition_case{condition::eq, make_flags(false, false, false, false), false},
        condition_case{condition::ne, make_flags(false, false, false, false), true},
        condition_case{condition::ne, make_flags(false, true, false, false), false},
        condition_case{condition::cs, make_flags(false, false, true, false), true},
        condition_case{condition::cc, make_flags(false, false, true, false), false},
        condition_case{condition::mi, make_flags(true, false, false, false), true},
        condition_case{condition::pl, make_flags(true, false, false, false), false},
        condition_case{condition::vs, make_flags(false, false, false, true), true},
        condition_case{condition::vc, make_flags(false, false, false, true), false},
        condition_case{condition::hi, make_flags(false, false, true, false), true},
        condition_case{condition::hi, make_flags(false, true, true, false), false},
        condition_case{condition::ls, make_flags(false, true, true, false), true},
        condition_case{condition::ge, make_flags(true, false, false, true), true},
        condition_case{condition::ge, make_flags(true, false, false, false), false},
        condition_case{condition::lt, make_flags(true, false, false, false), true},
        condition_case{condition::gt, make_flags(false, false, false, false), true},
        condition_case{condition::gt, make_flags(false, true, false, false), false},
        condition_case{condition::le, make_flags(false, true, false, false), true},
        condition_case{condition::al, make_flags(true, true, true, true), true},
        condition_case{condition::nv, make_flags(true, true, true, true), false}));

TEST(Condition, SuffixRoundTrip) {
  for (int i = 0; i < 16; ++i) {
    const auto cond = static_cast<condition>(i);
    const std::string_view suffix = condition_suffix(cond);
    const auto parsed = parse_condition(suffix);
    ASSERT_TRUE(parsed.has_value()) << suffix;
    EXPECT_EQ(*parsed, cond);
  }
}

TEST(Condition, ParseAliases) {
  EXPECT_EQ(parse_condition("hs"), condition::cs);
  EXPECT_EQ(parse_condition("lo"), condition::cc);
  EXPECT_EQ(parse_condition(""), condition::al);
  EXPECT_FALSE(parse_condition("zz").has_value());
}

} // namespace
} // namespace usca::isa
