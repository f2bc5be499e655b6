/**
 * @file
 * Low-level reader for the sectioned `eaao-scenario v2` campaign
 * format (docs/scenario-dsl.md).
 *
 * A spec file is a version header followed by `[section]` blocks.
 * Every non-blank, non-comment line inside a section is either a
 * `key = value` entry (the text left of the first `=` is a single
 * identifier) or a positional *directive* whose first token names it
 * (`account -1 1000`, `trigger surge when ... emit "..."`). Tokens
 * split on whitespace; double-quoted tokens may contain spaces. This
 * layer is purely syntactic — it keeps raw text and line numbers so
 * every typed accessor above it (spec.hpp, testkit's Scenario::fromSpec)
 * can report one-line, line-precise errors.
 */

#ifndef EAAO_CAMPAIGN_SPECFILE_HPP
#define EAAO_CAMPAIGN_SPECFILE_HPP

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace eaao::campaign {

/** Version this build reads and writes. */
inline constexpr unsigned kSpecVersion = 2;

/**
 * A malformed spec, expression, or parameter. The message is already
 * one line and line-precise ("<file>:<line>: ..."); drivers print it
 * to stderr verbatim and exit 2.
 */
class SpecError : public std::runtime_error
{
  public:
    explicit SpecError(const std::string &message)
        : std::runtime_error(message)
    {
    }
};

/** One meaningful line of a section. */
struct SpecLine
{
    std::size_t line_no = 0;
    std::string raw;                  //!< trimmed source text
    std::string key;                  //!< set for `key = value` lines
    std::string value;                //!< raw value text of a key line
    std::vector<std::string> tokens;  //!< value tokens (key lines) or
                                      //!< all tokens (directive lines)

    bool isKeyValue() const { return !key.empty(); }
};

/** One `[name]` block. */
struct SpecSection
{
    std::string name;
    std::size_t line_no = 0;  //!< line of the `[name]` header
    std::vector<SpecLine> lines;

    /** Last `key = value` line for @p key, or nullptr. */
    const SpecLine *find(const std::string &key) const;

    /** Every line whose key or leading directive token equals @p k. */
    std::vector<const SpecLine *> all(const std::string &k) const;
};

/** A fully tokenized spec file. */
struct SpecFile
{
    std::string path = "<memory>";  //!< origin, used in error messages
    std::vector<SpecSection> sections;

    const SpecSection *section(const std::string &name) const;

    /**
     * Parse @p text (a v2 file). On failure returns false with a
     * one-line, line-precise message in @p error. Any header other
     * than `eaao-scenario v2` is rejected; a version above
     * kSpecVersion yields the "newer than this binary supports"
     * message.
     */
    static bool parse(const std::string &text, const std::string &path,
                      SpecFile &out, std::string &error);

    /** Canonical re-rendering (used by `run_campaign --describe`). */
    std::string render() const;
};

/** Section names the v2 format defines; anything else is an error. */
bool isKnownSection(const std::string &name);

} // namespace eaao::campaign

#endif // EAAO_CAMPAIGN_SPECFILE_HPP
