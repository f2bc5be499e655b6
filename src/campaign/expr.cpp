/**
 * @file
 * Recursive-descent parser and total evaluator for trigger
 * expressions (docs/scenario-dsl.md §5).
 */

#include "campaign/expr.hpp"

#include "campaign/specfile.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <sstream>

namespace eaao::campaign {

namespace {

enum class TokKind : std::uint8_t
{
    End,
    Num,
    Str,     // 'single-quoted'
    Ident,   // possibly dotted: orch.placements
    Punct,   // ( ) ,
    Op,      // == != <= >= < > && || ! + - * /
};

struct Tok
{
    TokKind kind = TokKind::End;
    std::string text;
    double number = 0.0;
    std::size_t pos = 0;  // byte offset, for error messages
};

class Lexer
{
  public:
    Lexer(const std::string &text, const std::string &where)
        : text_(text), where_(where)
    {
        advance();
    }

    const Tok &peek() const { return tok_; }

    Tok take()
    {
        Tok t = tok_;
        advance();
        return t;
    }

    [[noreturn]] void fail(const std::string &why, std::size_t pos) const
    {
        throw SpecError(where_ + ": " + why + " at column " +
                        std::to_string(pos + 1) + " of '" + text_ + "'");
    }

  private:
    void advance()
    {
        while (i_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[i_])))
            ++i_;
        tok_ = Tok{};
        tok_.pos = i_;
        if (i_ >= text_.size()) {
            tok_.kind = TokKind::End;
            return;
        }
        const char c = text_[i_];
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && i_ + 1 < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[i_ + 1])))) {
            char *end = nullptr;
            tok_.number = std::strtod(text_.c_str() + i_, &end);
            tok_.kind = TokKind::Num;
            tok_.text = text_.substr(i_, end - (text_.c_str() + i_));
            i_ = end - text_.c_str();
            return;
        }
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            std::size_t j = i_;
            while (j < text_.size() &&
                   (std::isalnum(static_cast<unsigned char>(text_[j])) ||
                    text_[j] == '_' || text_[j] == '.'))
                ++j;
            tok_.kind = TokKind::Ident;
            tok_.text = text_.substr(i_, j - i_);
            i_ = j;
            return;
        }
        if (c == '\'') {
            const std::size_t close = text_.find('\'', i_ + 1);
            if (close == std::string::npos)
                fail("unclosed string literal", i_);
            tok_.kind = TokKind::Str;
            tok_.text = text_.substr(i_ + 1, close - i_ - 1);
            i_ = close + 1;
            return;
        }
        if (c == '(' || c == ')' || c == ',') {
            tok_.kind = TokKind::Punct;
            tok_.text = std::string(1, c);
            ++i_;
            return;
        }
        static const char *const kTwoChar[] = {"==", "!=", "<=", ">=",
                                               "&&", "||"};
        for (const char *op : kTwoChar) {
            if (text_.compare(i_, 2, op) == 0) {
                tok_.kind = TokKind::Op;
                tok_.text = op;
                i_ += 2;
                return;
            }
        }
        if (c == '<' || c == '>' || c == '!' || c == '+' || c == '-' ||
            c == '*' || c == '/') {
            tok_.kind = TokKind::Op;
            tok_.text = std::string(1, c);
            ++i_;
            return;
        }
        fail(std::string("unexpected character '") + c + "'", i_);
    }

    const std::string &text_;
    const std::string &where_;
    std::size_t i_ = 0;
    Tok tok_;
};

std::unique_ptr<Expr>
mk(ExprOp op)
{
    auto e = std::make_unique<Expr>();
    e->op = op;
    return e;
}

struct FuncSig
{
    const char *name;
    int min_args;
    int max_args;
};

// Arity is checked at parse time so a bad trigger line fails the whole
// campaign load with a precise message instead of misfiring at runtime.
const FuncSig kFuncs[] = {
    {"rate", 2, 2},          {"count_since", 2, 2},
    {"min", 2, 2},           {"max", 2, 2},
    {"abs", 1, 1},           {"time", 0, 0},
    {"custom_function", 1, 8},
};

class Parser
{
  public:
    Parser(Lexer &lex) : lex_(lex) {}

    // Grammar (precedence climbing, loosest first):
    //   or    ::= and ( '||' and )*
    //   and   ::= cmp ( '&&' cmp )*
    //   cmp   ::= sum ( ('=='|'!='|'<'|'<='|'>'|'>=') sum )?
    //   sum   ::= term ( ('+'|'-') term )*
    //   term  ::= unary ( ('*'|'/') unary )*
    //   unary ::= ('!'|'-') unary | atom
    //   atom  ::= number | 'string' | counter | func '(' args ')'
    //           | '(' or ')'
    std::unique_ptr<Expr> parseOr()
    {
        auto lhs = parseAnd();
        while (isOp("||"))
            lhs = mkBinary(ExprOp::Or, std::move(lhs),
                           (lex_.take(), parseAnd()));
        return lhs;
    }

  private:
    [[noreturn]] void tooDeep(std::size_t pos) const
    {
        lex_.fail("expression nested deeper than " +
                      std::to_string(kMaxExprDepth) + " levels",
                  pos);
    }

    /** Open one level of recursion ('(', a prefix operator or a call);
     *  the caller closes it with --depth_. A throw abandons the parse,
     *  so nothing needs unwinding. */
    void enter(std::size_t pos)
    {
        if (++depth_ > kMaxExprDepth)
            tooDeep(pos);
    }

    /** Append @p kid to @p parent, refusing a tree taller than the cap
     *  (a long operator chain nests without recursing). */
    void adopt(Expr &parent, std::unique_ptr<Expr> kid)
    {
        parent.height = std::max(parent.height, kid->height + 1);
        if (parent.height > kMaxExprDepth)
            tooDeep(lex_.peek().pos);
        parent.kids.push_back(std::move(kid));
    }

    std::unique_ptr<Expr> mkBinary(ExprOp op, std::unique_ptr<Expr> lhs,
                                   std::unique_ptr<Expr> rhs)
    {
        auto e = mk(op);
        adopt(*e, std::move(lhs));
        adopt(*e, std::move(rhs));
        return e;
    }

    bool isOp(const char *text) const
    {
        return lex_.peek().kind == TokKind::Op && lex_.peek().text == text;
    }

    bool isPunct(char c) const
    {
        return lex_.peek().kind == TokKind::Punct &&
               lex_.peek().text[0] == c;
    }

    std::unique_ptr<Expr> parseAnd()
    {
        auto lhs = parseCmp();
        while (isOp("&&"))
            lhs = mkBinary(ExprOp::And, std::move(lhs),
                           (lex_.take(), parseCmp()));
        return lhs;
    }

    std::unique_ptr<Expr> parseCmp()
    {
        auto lhs = parseSum();
        static const std::pair<const char *, ExprOp> kCmps[] = {
            {"==", ExprOp::Eq}, {"!=", ExprOp::Ne}, {"<=", ExprOp::Le},
            {">=", ExprOp::Ge}, {"<", ExprOp::Lt},  {">", ExprOp::Gt},
        };
        for (const auto &[text, op] : kCmps) {
            if (isOp(text)) {
                lex_.take();
                return mkBinary(op, std::move(lhs), parseSum());
            }
        }
        return lhs;
    }

    std::unique_ptr<Expr> parseSum()
    {
        auto lhs = parseTerm();
        while (isOp("+") || isOp("-")) {
            const ExprOp op =
                lex_.take().text == "+" ? ExprOp::Add : ExprOp::Sub;
            lhs = mkBinary(op, std::move(lhs), parseTerm());
        }
        return lhs;
    }

    std::unique_ptr<Expr> parseTerm()
    {
        auto lhs = parseUnary();
        while (isOp("*") || isOp("/")) {
            const ExprOp op =
                lex_.take().text == "*" ? ExprOp::Mul : ExprOp::Div;
            lhs = mkBinary(op, std::move(lhs), parseUnary());
        }
        return lhs;
    }

    std::unique_ptr<Expr> parseUnary()
    {
        if (!isOp("!") && !isOp("-"))
            return parseAtom();
        const Tok tok = lex_.take();
        enter(tok.pos);
        auto e = mk(tok.text == "!" ? ExprOp::Not : ExprOp::Neg);
        adopt(*e, parseUnary());
        --depth_;
        return e;
    }

    std::unique_ptr<Expr> parseAtom()
    {
        const Tok tok = lex_.take();
        switch (tok.kind) {
        case TokKind::Num: {
            auto e = mk(ExprOp::Num);
            e->number = tok.number;
            return e;
        }
        case TokKind::Str: {
            auto e = mk(ExprOp::Str);
            e->text = tok.text;
            return e;
        }
        case TokKind::Ident:
            if (isPunct('('))
                return parseCall(tok);
            {
                auto e = mk(ExprOp::Counter);
                e->text = tok.text;
                return e;
            }
        case TokKind::Punct:
            if (tok.text == "(") {
                enter(tok.pos);
                auto e = parseOr();
                expectPunct(')');
                --depth_;
                return e;
            }
            break;
        default:
            break;
        }
        lex_.fail(tok.kind == TokKind::End
                      ? "unexpected end of expression"
                      : "unexpected token '" + tok.text + "'",
                  tok.pos);
    }

    std::unique_ptr<Expr> parseCall(const Tok &name)
    {
        const FuncSig *sig = nullptr;
        for (const FuncSig &f : kFuncs) {
            if (name.text == f.name)
                sig = &f;
        }
        if (sig == nullptr) {
            lex_.fail("unknown function '" + name.text +
                          "' (known: rate, count_since, min, max, abs, "
                          "time, custom_function)",
                      name.pos);
        }
        expectPunct('(');
        enter(name.pos);
        auto e = mk(ExprOp::Call);
        e->text = name.text;
        if (!isPunct(')')) {
            adopt(*e, parseOr());
            while (isPunct(',')) {
                lex_.take();
                adopt(*e, parseOr());
            }
        }
        expectPunct(')');
        --depth_;
        const int argc = static_cast<int>(e->kids.size());
        if (argc < sig->min_args || argc > sig->max_args) {
            lex_.fail(name.text + "() takes " +
                          (sig->min_args == sig->max_args
                               ? std::to_string(sig->min_args)
                               : std::to_string(sig->min_args) + ".." +
                                     std::to_string(sig->max_args)) +
                          " argument(s), got " + std::to_string(argc),
                      name.pos);
        }
        // The aggregate functions address a counter by name: their
        // first argument must be a counter reference, not a value.
        if ((e->text == "rate" || e->text == "count_since") &&
            e->kids[0]->op != ExprOp::Counter) {
            lex_.fail(e->text +
                          "() expects a counter name as its first "
                          "argument (e.g. rate(orch.placements, 60))",
                      name.pos);
        }
        if (e->text == "custom_function" &&
            e->kids[0]->op != ExprOp::Str) {
            lex_.fail("custom_function() expects a 'quoted name' as its "
                          "first argument",
                      name.pos);
        }
        return e;
    }

    void expectPunct(char c)
    {
        if (!isPunct(c))
            lex_.fail(std::string("expected '") + c + "'",
                      lex_.peek().pos);
        lex_.take();
    }

    Lexer &lex_;
    std::uint32_t depth_ = 0; //!< open enter() levels
};

double
truthy(bool b)
{
    return b ? 1.0 : 0.0;
}

std::string
renderNumber(double v)
{
    std::ostringstream out;
    out << v;
    return out.str();
}

} // namespace

std::unique_ptr<Expr>
parseExpr(const std::string &text, const std::string &where)
{
    Lexer lex(text, where);
    Parser parser(lex);
    auto e = parser.parseOr();
    if (lex.peek().kind != TokKind::End) {
        lex.fail("trailing input '" + lex.peek().text + "'",
                 lex.peek().pos);
    }
    return e;
}

double
evalExpr(const Expr &e, const CounterSource &counters, double t_s,
         const std::function<CustomFunction(const std::string &)> *custom)
{
    const auto kid = [&](std::size_t i) {
        return evalExpr(*e.kids[i], counters, t_s, custom);
    };
    switch (e.op) {
    case ExprOp::Num:
        return e.number;
    case ExprOp::Str:
        return 0.0;  // strings only carry names into Call nodes
    case ExprOp::Counter:
        return counters.valueAt(e.text, t_s);
    case ExprOp::Eq:
        return truthy(kid(0) == kid(1));
    case ExprOp::Ne:
        return truthy(kid(0) != kid(1));
    case ExprOp::Lt:
        return truthy(kid(0) < kid(1));
    case ExprOp::Le:
        return truthy(kid(0) <= kid(1));
    case ExprOp::Gt:
        return truthy(kid(0) > kid(1));
    case ExprOp::Ge:
        return truthy(kid(0) >= kid(1));
    case ExprOp::And:
        return truthy(kid(0) != 0.0 && kid(1) != 0.0);
    case ExprOp::Or:
        return truthy(kid(0) != 0.0 || kid(1) != 0.0);
    case ExprOp::Not:
        return truthy(kid(0) == 0.0);
    case ExprOp::Add:
        return kid(0) + kid(1);
    case ExprOp::Sub:
        return kid(0) - kid(1);
    case ExprOp::Mul:
        return kid(0) * kid(1);
    case ExprOp::Div: {
        const double denom = kid(1);
        return denom == 0.0 ? 0.0 : kid(0) / denom;
    }
    case ExprOp::Neg:
        return -kid(0);
    case ExprOp::Call:
        if (e.text == "rate")
            return counters.rate(e.kids[0]->text, kid(1), t_s);
        if (e.text == "count_since")
            return counters.countSince(e.kids[0]->text, kid(1), t_s);
        if (e.text == "min")
            return std::min(kid(0), kid(1));
        if (e.text == "max")
            return std::max(kid(0), kid(1));
        if (e.text == "abs")
            return std::abs(kid(0));
        if (e.text == "time")
            return t_s;
        if (e.text == "custom_function") {
            if (custom == nullptr)
                return 0.0;
            const CustomFunction fn = (*custom)(e.kids[0]->text);
            if (!fn)
                return 0.0;
            std::vector<double> args;
            for (std::size_t i = 1; i < e.kids.size(); ++i)
                args.push_back(kid(i));
            return fn(args);
        }
        return 0.0;
    }
    return 0.0;
}

std::string
renderExpr(const Expr &e)
{
    const auto kid = [&](std::size_t i) { return renderExpr(*e.kids[i]); };
    const auto binary = [&](const char *op) {
        // Built in place: `"(" + kid(0) + ...` trips a false
        // -Wrestrict in GCC 12's inlined string insert.
        std::string out = "(";
        out += kid(0);
        out += ' ';
        out += op;
        out += ' ';
        out += kid(1);
        out += ')';
        return out;
    };
    switch (e.op) {
    case ExprOp::Num:
        return renderNumber(e.number);
    case ExprOp::Str:
        return "'" + e.text + "'";
    case ExprOp::Counter:
        return e.text;
    case ExprOp::Eq:
        return binary("==");
    case ExprOp::Ne:
        return binary("!=");
    case ExprOp::Lt:
        return binary("<");
    case ExprOp::Le:
        return binary("<=");
    case ExprOp::Gt:
        return binary(">");
    case ExprOp::Ge:
        return binary(">=");
    case ExprOp::And:
        return binary("&&");
    case ExprOp::Or:
        return binary("||");
    case ExprOp::Not:
        return "!" + kid(0);
    case ExprOp::Add:
        return binary("+");
    case ExprOp::Sub:
        return binary("-");
    case ExprOp::Mul:
        return binary("*");
    case ExprOp::Div:
        return binary("/");
    case ExprOp::Neg:
        return "-" + kid(0);
    case ExprOp::Call: {
        std::string out = e.text + "(";
        for (std::size_t i = 0; i < e.kids.size(); ++i) {
            if (i != 0)
                out += ", ";
            out += kid(i);
        }
        return out + ")";
    }
    }
    return "?";
}

namespace {

void
collectCounters(const Expr &e, std::vector<std::string> &out)
{
    if (e.op == ExprOp::Counter)
        out.push_back(e.text);
    for (const std::unique_ptr<Expr> &kid : e.kids)
        collectCounters(*kid, out);
}

} // namespace

std::vector<std::string>
counterNames(const Expr &e)
{
    std::vector<std::string> names;
    collectCounters(e, names);
    std::sort(names.begin(), names.end());
    names.erase(std::unique(names.begin(), names.end()), names.end());
    return names;
}

} // namespace eaao::campaign
