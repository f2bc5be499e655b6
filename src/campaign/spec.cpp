/**
 * @file
 * Checked accessors over a parsed campaign spec.
 */

#include "campaign/spec.hpp"

#include <charconv>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

namespace eaao::campaign {

namespace {

bool
parseNumber(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end == text.c_str() + text.size();
}

/** @p token as an integer of type T: the whole token, in T's range. */
template <typename T>
bool
parseInteger(const std::string &token, T &out)
{
    const char *end = token.data() + token.size();
    const auto [ptr, ec] = std::from_chars(token.data(), end, out);
    return ec == std::errc() && ptr == end;
}

/** The value of key line @p line as an unsigned T, exactly. */
template <typename T>
T
unsignedValue(const CampaignSpec &spec, const SpecLine &line)
{
    T value = 0;
    if (!parseInteger(line.value, value)) {
        spec.fail(line.line_no,
                  "'" + line.key + "' expects an integer in 0.." +
                      std::to_string(std::numeric_limits<T>::max()) +
                      ", got '" + line.value + "'");
    }
    return value;
}

} // namespace

CampaignSpec
CampaignSpec::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        throw SpecError(path + ":1: cannot open file");
    }
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str(), path);
}

CampaignSpec
CampaignSpec::parse(const std::string &text, const std::string &path)
{
    CampaignSpec spec;
    std::string error;
    if (!SpecFile::parse(text, path, spec.file_, error))
        throw SpecError(error);

    const SpecSection *campaign = spec.file_.section("campaign");
    if (campaign == nullptr) {
        throw SpecError(path + ":1: missing required section [campaign]");
    }
    spec.name_ = spec.str("campaign", "name");
    spec.program_ = spec.str("campaign", "program");
    spec.title_ = spec.str("campaign", "title", "");

    // Compile trigger conditions now so a malformed expression fails
    // the load with its line number instead of surfacing mid-run.
    (void)spec.triggers();
    return spec;
}

void
CampaignSpec::fail(std::size_t line_no, const std::string &why) const
{
    throw SpecError(file_.path + ":" + std::to_string(line_no) + ": " +
                    why);
}

const SpecLine *
CampaignSpec::findLine(const std::string &section,
                       const std::string &key) const
{
    const SpecSection *s = file_.section(section);
    return s == nullptr ? nullptr : s->find(key);
}

const SpecLine &
CampaignSpec::requireLine(const std::string &section,
                          const std::string &key) const
{
    const SpecLine *line = findLine(section, key);
    if (line == nullptr) {
        const SpecSection *s = file_.section(section);
        if (s == nullptr) {
            throw SpecError(file_.path + ":1: missing required section [" +
                            section + "] (wanted key '" + key + "')");
        }
        fail(s->line_no,
             "[" + section + "] is missing required key '" + key + "'");
    }
    return *line;
}

double
CampaignSpec::numFromToken(const SpecLine &line,
                           const std::string &token) const
{
    double value = 0.0;
    if (!parseNumber(token, value)) {
        fail(line.line_no, "'" + (line.key.empty() ? line.tokens[0]
                                                   : line.key) +
                               "' expects a number, got '" + token + "'");
    }
    return value;
}

bool
CampaignSpec::has(const std::string &section, const std::string &key) const
{
    return findLine(section, key) != nullptr;
}

std::string
CampaignSpec::str(const std::string &section, const std::string &key) const
{
    const SpecLine &line = requireLine(section, key);
    if (line.tokens.size() == 1)
        return line.tokens[0];  // unquotes a single quoted token
    return line.value;
}

std::string
CampaignSpec::str(const std::string &section, const std::string &key,
                  const std::string &fallback) const
{
    return has(section, key) ? str(section, key) : fallback;
}

double
CampaignSpec::num(const std::string &section, const std::string &key) const
{
    const SpecLine &line = requireLine(section, key);
    return numFromToken(line, line.value);
}

double
CampaignSpec::num(const std::string &section, const std::string &key,
                  double fallback) const
{
    return has(section, key) ? num(section, key) : fallback;
}

std::uint32_t
CampaignSpec::u32(const std::string &section, const std::string &key) const
{
    return unsignedValue<std::uint32_t>(*this, requireLine(section, key));
}

std::uint32_t
CampaignSpec::u32(const std::string &section, const std::string &key,
                  std::uint32_t fallback) const
{
    return has(section, key) ? u32(section, key) : fallback;
}

std::uint64_t
CampaignSpec::u64(const std::string &section, const std::string &key) const
{
    return unsignedValue<std::uint64_t>(*this, requireLine(section, key));
}

std::uint32_t
CampaignSpec::hosts() const
{
    const std::uint32_t hosts = u32("platform", "hosts", 0);
    if (hosts > kMaxHosts) {
        fail(findLine("platform", "hosts")->line_no,
             "'hosts' = " + std::to_string(hosts) + " exceeds the " +
                 std::to_string(kMaxHosts) + "-host cap");
    }
    return hosts;
}

bool
CampaignSpec::flag(const std::string &section, const std::string &key,
                   bool fallback) const
{
    if (!has(section, key))
        return fallback;
    const std::string value = str(section, key);
    if (value == "1" || value == "true")
        return true;
    if (value == "0" || value == "false")
        return false;
    fail(findLine(section, key)->line_no,
         "'" + key + "' expects 0/1/true/false, got '" + value + "'");
}

std::vector<double>
CampaignSpec::numList(const std::string &section,
                      const std::string &key) const
{
    const SpecLine &line = requireLine(section, key);
    std::vector<double> values;
    values.reserve(line.tokens.size());
    for (const std::string &token : line.tokens)
        values.push_back(numFromToken(line, token));
    return values;
}

std::vector<std::string>
CampaignSpec::strList(const std::string &section,
                      const std::string &key) const
{
    return requireLine(section, key).tokens;
}

std::vector<const SpecLine *>
CampaignSpec::directives(const std::string &section,
                         const std::string &head) const
{
    const SpecSection *s = file_.section(section);
    if (s == nullptr)
        return {};
    std::vector<const SpecLine *> hits;
    for (const SpecLine &line : s->lines) {
        if (!line.isKeyValue() && line.tokens[0] == head)
            hits.push_back(&line);
    }
    return hits;
}

std::int64_t
CampaignSpec::intArg(const SpecLine &line, std::size_t index,
                     std::int64_t lo, std::int64_t hi,
                     const std::string &what) const
{
    if (index >= line.tokens.size())
        fail(line.line_no, "missing " + what);
    const std::string &token = line.tokens[index];
    std::int64_t value = 0;
    if (!parseInteger(token, value) || value < lo || value > hi) {
        fail(line.line_no, what + " expects an integer in " +
                               std::to_string(lo) + ".." +
                               std::to_string(hi) + ", got '" + token +
                               "'");
    }
    return value;
}

std::vector<Trigger>
CampaignSpec::triggers() const
{
    std::vector<Trigger> out;
    for (const SpecLine *line : directives("triggers", "trigger")) {
        // trigger <name> when <expr...> emit "<message>"
        const std::vector<std::string> &toks = line->tokens;
        const std::string where =
            file_.path + ":" + std::to_string(line->line_no);
        if (toks.size() < 5 || toks[2] != "when") {
            fail(line->line_no,
                 "expected: trigger <name> when <condition> emit "
                 "\"<message>\"");
        }
        std::size_t emit = toks.size();
        for (std::size_t i = 3; i < toks.size(); ++i) {
            if (toks[i] == "emit")
                emit = i;
        }
        if (emit + 2 != toks.size()) {
            fail(line->line_no,
                 "trigger '" + toks[1] +
                     "' must end with: emit \"<message>\"");
        }
        std::string condition;
        for (std::size_t i = 3; i < emit; ++i) {
            if (!condition.empty())
                condition += " ";
            condition += toks[i];
        }
        Trigger trigger;
        trigger.name = toks[1];
        trigger.condition_text = condition;
        trigger.condition = parseExpr(condition, where);
        trigger.message = toks[emit + 1];
        out.push_back(std::move(trigger));
    }
    return out;
}

std::vector<std::string>
CampaignSpec::notes() const
{
    std::vector<std::string> out;
    const SpecSection *s = file_.section("outputs");
    if (s == nullptr)
        return out;
    for (const SpecLine &line : s->lines) {
        if (line.key != "note")
            continue;
        // A fully quoted note keeps leading/trailing whitespace that
        // the line trimmer would otherwise eat.
        if (line.value.size() >= 2 && line.value.front() == '"' &&
            line.value.back() == '"') {
            out.push_back(
                line.value.substr(1, line.value.size() - 2));
        } else {
            out.push_back(line.value);
        }
    }
    return out;
}

} // namespace eaao::campaign
