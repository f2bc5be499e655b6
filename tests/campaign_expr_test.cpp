/**
 * @file
 * The trigger expression language: parser goldens (via renderExpr),
 * total-evaluation semantics, windowed aggregates over the
 * CounterTimeline, custom functions, and the line-precise parse
 * errors the spec book catalogs.
 */

#include "campaign/expr.hpp"
#include "campaign/specfile.hpp"
#include "campaign/trigger.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

using namespace eaao::campaign;

namespace {

/** Fixed counters: x = 10, y = 4; rate/count_since echo their args. */
class FakeCounters final : public CounterSource
{
  public:
    double valueAt(const std::string &name, double) const override
    {
        if (name == "x")
            return 10.0;
        if (name == "y")
            return 4.0;
        return 0.0;
    }
    double rate(const std::string &name, double window_s,
                double) const override
    {
        return name == "x" ? 100.0 / window_s : 0.0;
    }
    double countSince(const std::string &name, double since_s,
                      double t_s) const override
    {
        return name == "x" ? t_s - since_s : 0.0;
    }
};

double
evalText(const std::string &text)
{
    const auto e = parseExpr(text, "t:1");
    const FakeCounters counters;
    return evalExpr(*e, counters, /*t_s=*/60.0);
}

std::string
parseErrorOf(const std::string &text)
{
    try {
        parseExpr(text, "spec.scenario:9");
    } catch (const SpecError &e) {
        return e.what();
    }
    ADD_FAILURE() << "expected SpecError for: " << text;
    return "";
}

std::string
rendered(const std::string &text)
{
    return renderExpr(*parseExpr(text, "t:1"));
}

} // namespace

TEST(ExprEval, ArithmeticAndPrecedence)
{
    EXPECT_DOUBLE_EQ(evalText("1 + 2 * 3"), 7.0);
    EXPECT_DOUBLE_EQ(evalText("(1 + 2) * 3"), 9.0);
    EXPECT_DOUBLE_EQ(evalText("-x + 2"), -8.0);
    EXPECT_DOUBLE_EQ(evalText("x - y - 1"), 5.0);
    EXPECT_DOUBLE_EQ(evalText("x / y"), 2.5);
    // Total semantics: division by zero yields 0, not a trap.
    EXPECT_DOUBLE_EQ(evalText("x / (y - 4)"), 0.0);
    // Unknown counters read 0.
    EXPECT_DOUBLE_EQ(evalText("orch.never_sampled + 1"), 1.0);
}

TEST(ExprEval, ComparisonsAndBooleans)
{
    EXPECT_DOUBLE_EQ(evalText("x > 9"), 1.0);
    EXPECT_DOUBLE_EQ(evalText("x > 10"), 0.0);
    EXPECT_DOUBLE_EQ(evalText("x >= 10 && y <= 4"), 1.0);
    EXPECT_DOUBLE_EQ(evalText("x == 10 || y != 4"), 1.0);
    EXPECT_DOUBLE_EQ(evalText("!(x < 100)"), 0.0);
    // && binds tighter than ||.
    EXPECT_DOUBLE_EQ(evalText("1 || 0 && 0"), 1.0);
}

TEST(ExprEval, Functions)
{
    EXPECT_DOUBLE_EQ(evalText("min(x, y)"), 4.0);
    EXPECT_DOUBLE_EQ(evalText("max(x, y)"), 10.0);
    EXPECT_DOUBLE_EQ(evalText("abs(y - x)"), 6.0);
    EXPECT_DOUBLE_EQ(evalText("time()"), 60.0);
    EXPECT_DOUBLE_EQ(evalText("rate(x, 50)"), 2.0);
    EXPECT_DOUBLE_EQ(evalText("count_since(x, 40)"), 20.0);
    // With no resolver registered, custom_function evaluates to 0.
    EXPECT_DOUBLE_EQ(evalText("custom_function('f', x) + 1"), 1.0);
}

TEST(ExprEval, CustomFunctionResolver)
{
    const auto e = parseExpr("custom_function('double_it', x + 1)", "t:1");
    const FakeCounters counters;
    const std::function<CustomFunction(const std::string &)> resolver =
        [](const std::string &name) -> CustomFunction {
        if (name == "double_it")
            return [](const std::vector<double> &args) {
                return args.empty() ? 0.0 : 2.0 * args[0];
            };
        return nullptr;
    };
    EXPECT_DOUBLE_EQ(evalExpr(*e, counters, 0.0, &resolver), 22.0);
}

TEST(ExprRender, CanonicalForms)
{
    EXPECT_EQ(rendered("1+2*3"), "(1 + (2 * 3))");
    EXPECT_EQ(rendered("x>9&&y<5"), "((x > 9) && (y < 5))");
    EXPECT_EQ(rendered("rate(orch.placements,30)>2"),
              "(rate(orch.placements, 30) > 2)");
    EXPECT_EQ(rendered("custom_function('f', 1)"),
              "custom_function('f', 1)");
}

TEST(ExprErrors, LinePreciseAndOneLine)
{
    const std::string msg = parseErrorOf("x + ");
    EXPECT_EQ(msg.find('\n'), std::string::npos) << msg;
    EXPECT_NE(msg.find("spec.scenario:9:"), std::string::npos) << msg;
    EXPECT_NE(msg.find("of 'x + '"), std::string::npos) << msg;

    EXPECT_NE(parseErrorOf("frobnicate(1)").find("unknown function"),
              std::string::npos);
    EXPECT_NE(parseErrorOf("min(1)").find("argument(s), got 1"),
              std::string::npos);
    EXPECT_NE(parseErrorOf("rate(5, 30)")
                  .find("counter name as its first argument"),
              std::string::npos);
    EXPECT_NE(parseErrorOf("custom_function(x)")
                  .find("'quoted name' as its first argument"),
              std::string::npos);
    EXPECT_NE(parseErrorOf("x ? 1").find("unexpected character"),
              std::string::npos);
    EXPECT_NE(parseErrorOf("x > 1 y").find("trailing input"),
              std::string::npos);
    EXPECT_NE(parseErrorOf("'unclosed").find("unclosed string literal"),
              std::string::npos);
    EXPECT_NE(parseErrorOf("(x > 1").find("expected ')'"),
              std::string::npos);
}

TEST(ExprErrors, NestingDepthIsCapped)
{
    // Inputs that used to overflow the stack: each must come back as
    // one line-precise error instead.
    const std::string parens =
        std::string(10'000, '(') + "x" + std::string(10'000, ')');
    const std::string minus = std::string(200'000, '-') + "1";
    std::string chain = "1";
    for (int i = 0; i < 200'000; ++i)
        chain += "+1";
    for (const std::string &text : {parens, minus, chain}) {
        const std::string msg = parseErrorOf(text);
        EXPECT_EQ(msg.rfind("spec.scenario:9: expression nested deeper "
                            "than 256 levels at column ",
                            0),
                  0u)
            << msg.substr(0, 120);
        EXPECT_EQ(msg.find('\n'), std::string::npos);
    }

    // The cap itself still parses and evaluates; one level more fails.
    const auto nested = [](std::uint32_t depth) {
        return std::string(depth, '(') + "x" + std::string(depth, ')');
    };
    EXPECT_DOUBLE_EQ(evalText(nested(kMaxExprDepth)), 10.0);
    EXPECT_NE(parseErrorOf(nested(kMaxExprDepth + 1)).find("nested deeper"),
              std::string::npos);
    EXPECT_DOUBLE_EQ(evalText(std::string(kMaxExprDepth - 1, '-') + "1"),
                     -1.0);
    EXPECT_NE(parseErrorOf(std::string(kMaxExprDepth, '-') + "1")
                  .find("nested deeper"),
              std::string::npos);
}

TEST(TriggerEngine, TimelineAggregates)
{
    CounterTimeline tl;
    tl.record("c", 0.0, 0.0);
    tl.record("c", 10.0, 50.0);
    tl.record("c", 20.0, 150.0);

    EXPECT_DOUBLE_EQ(tl.valueAt("c", 5.0), 0.0);
    EXPECT_DOUBLE_EQ(tl.valueAt("c", 10.0), 50.0);
    EXPECT_DOUBLE_EQ(tl.valueAt("c", 99.0), 150.0);
    EXPECT_DOUBLE_EQ(tl.valueAt("missing", 99.0), 0.0);
    // Increase over [10, 20] / 10.
    EXPECT_DOUBLE_EQ(tl.rate("c", 10.0, 20.0), 10.0);
    EXPECT_DOUBLE_EQ(tl.rate("c", 0.0, 20.0), 0.0);
    // Samples in (0, 20].
    EXPECT_DOUBLE_EQ(tl.countSince("c", 0.0, 20.0), 2.0);
}

TEST(TriggerEngine, RisingEdgeFiring)
{
    TriggerEngine engine;
    Trigger t;
    t.name = "hot";
    t.condition_text = "c >= 100";
    t.condition = parseExpr(t.condition_text, "t:1");
    t.message = "crossed 100";
    engine.add(std::move(t));

    engine.sample("c", 0.0, 10.0);
    engine.sample("c", 10.0, 120.0); // false -> true: fires
    engine.sample("c", 20.0, 130.0); // stays true: no refire
    engine.sample("c", 30.0, 50.0);  // re-arms
    engine.sample("c", 40.0, 200.0); // fires again

    const auto &firings = engine.firings();
    ASSERT_EQ(firings.size(), 2u);
    EXPECT_DOUBLE_EQ(firings[0].t_s, 10.0);
    EXPECT_EQ(firings[0].name, "hot");
    EXPECT_EQ(firings[0].message, "crossed 100");
    EXPECT_DOUBLE_EQ(firings[1].t_s, 40.0);
}
