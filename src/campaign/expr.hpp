/**
 * @file
 * The v2 trigger expression language (docs/scenario-dsl.md §5).
 *
 * A small, total expression language over orchestrator counters,
 * modeled on AWS IoT FleetWise campaign expressions: comparisons,
 * boolean operators, arithmetic, windowed aggregates
 * (`rate(counter, window_s)`, `count_since(counter, t_s)`), and
 * FleetWise-style `custom_function('name', args...)` escape hatches.
 * Parsing is strict (unknown functions, bad arity, and malformed
 * syntax are line-precise SpecErrors); evaluation is total (unknown
 * counters read 0, division by zero yields 0) so triggers never
 * abort a running campaign.
 */

#ifndef EAAO_CAMPAIGN_EXPR_HPP
#define EAAO_CAMPAIGN_EXPR_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace eaao::campaign {

enum class ExprOp : std::uint8_t
{
    Num,      //!< numeric literal
    Str,      //!< 'single-quoted' literal (custom_function name / args)
    Counter,  //!< dotted counter reference, e.g. orch.placements
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Not,
    Add,
    Sub,
    Mul,
    Div,
    Neg,
    Call,  //!< function call; name in `text`, args in `kids`
};

/**
 * Deepest nesting parseExpr() accepts, counted both as parentheses,
 * prefix operators and call arguments open at once and as levels of
 * the resulting tree, so parsing, evaluation, rendering and teardown
 * all recurse a bounded number of times.
 */
inline constexpr std::uint32_t kMaxExprDepth = 256;

struct Expr
{
    ExprOp op = ExprOp::Num;
    double number = 0.0;
    std::string text;  //!< counter name, string literal, or call name
    std::vector<std::unique_ptr<Expr>> kids;
    std::uint32_t height = 1; //!< levels in this subtree
};

/**
 * Read-side interface the evaluator pulls counter data through.
 * Implemented by TriggerEngine's CounterTimeline (trigger.hpp).
 */
class CounterSource
{
  public:
    virtual ~CounterSource() = default;

    /** Latest sampled value of @p name at or before @p t_s, else 0. */
    virtual double valueAt(const std::string &name, double t_s) const = 0;

    /**
     * Increase of @p name over the trailing window
     * [t_s - window_s, t_s], divided by window_s. 0 for an empty or
     * zero-length window.
     */
    virtual double rate(const std::string &name, double window_s,
                        double t_s) const = 0;

    /** Number of samples of @p name recorded in (since_s, t_s]. */
    virtual double countSince(const std::string &name, double since_s,
                              double t_s) const = 0;
};

/** Host hook for `custom_function('name', args...)`. */
using CustomFunction =
    std::function<double(const std::vector<double> &args)>;

/**
 * Parse @p text into an expression tree.
 *
 * @p where prefixes error messages ("<file>:<line>") so a malformed
 * trigger condition reports the spec line it came from. Throws
 * SpecError on any syntax, arity, or unknown-function problem.
 */
std::unique_ptr<Expr> parseExpr(const std::string &text,
                                const std::string &where);

/**
 * Evaluate @p e at simulated time @p t_s. Boolean results are 1/0;
 * any nonzero value is truthy. @p custom resolves
 * custom_function('name', ...) calls; with none registered the call
 * evaluates to 0.
 */
double evalExpr(const Expr &e, const CounterSource &counters, double t_s,
                const std::function<CustomFunction(const std::string &)>
                    *custom = nullptr);

/** Canonical single-line rendering (used by `--describe` and tests). */
std::string renderExpr(const Expr &e);

/**
 * Sorted, deduplicated counter names referenced anywhere in @p e,
 * including inside aggregate and custom_function arguments — what a
 * program must sample for the condition to ever fire. `--describe`
 * prints the union over a campaign's triggers.
 */
std::vector<std::string> counterNames(const Expr &e);

} // namespace eaao::campaign

#endif // EAAO_CAMPAIGN_EXPR_HPP
