/**
 * @file
 * Tokenizer for the sectioned `eaao-scenario v2` format.
 */

#include "campaign/specfile.hpp"

#include <cctype>
#include <cstdio>
#include <sstream>

namespace eaao::campaign {

namespace {

const char *const kKnownSections[] = {
    "campaign", "platform", "tenants",  "script",  "workload",
    "attack",   "verify",   "triggers", "outputs", "timetravel",
};

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

bool
isIdent(const std::string &s)
{
    if (s.empty())
        return false;
    if (!std::isalpha(static_cast<unsigned char>(s[0])) && s[0] != '_')
        return false;
    for (const char c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '.') {
            return false;
        }
    }
    return true;
}

/**
 * Whitespace tokenizer with double-quoted tokens ("a b" is one token,
 * quotes stripped, no escape sequences). Returns false on an unclosed
 * quote.
 */
bool
tokenize(const std::string &text, std::vector<std::string> &out)
{
    out.clear();
    std::size_t i = 0;
    while (i < text.size()) {
        while (i < text.size() &&
               std::isspace(static_cast<unsigned char>(text[i])))
            ++i;
        if (i >= text.size())
            break;
        if (text[i] == '"') {
            const std::size_t close = text.find('"', i + 1);
            if (close == std::string::npos)
                return false;
            out.push_back(text.substr(i + 1, close - i - 1));
            i = close + 1;
        } else {
            std::size_t j = i;
            while (j < text.size() &&
                   !std::isspace(static_cast<unsigned char>(text[j])))
                ++j;
            out.push_back(text.substr(i, j - i));
            i = j;
        }
    }
    return true;
}

} // namespace

bool
isKnownSection(const std::string &name)
{
    for (const char *known : kKnownSections) {
        if (name == known)
            return true;
    }
    return false;
}

const SpecLine *
SpecSection::find(const std::string &key) const
{
    const SpecLine *hit = nullptr;
    for (const SpecLine &line : lines) {
        if (line.key == key)
            hit = &line;
    }
    return hit;
}

std::vector<const SpecLine *>
SpecSection::all(const std::string &k) const
{
    std::vector<const SpecLine *> hits;
    for (const SpecLine &line : lines) {
        if (line.isKeyValue() ? line.key == k
                              : (!line.tokens.empty() &&
                                 line.tokens[0] == k)) {
            hits.push_back(&line);
        }
    }
    return hits;
}

const SpecSection *
SpecFile::section(const std::string &name) const
{
    for (const SpecSection &s : sections) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

bool
SpecFile::parse(const std::string &text, const std::string &path,
                SpecFile &out, std::string &error)
{
    out = SpecFile{};
    out.path = path;

    std::istringstream in(text);
    std::string raw;
    std::size_t line_no = 0;
    bool saw_header = false;
    SpecSection *current = nullptr;
    const std::string header =
        "eaao-scenario v" + std::to_string(kSpecVersion);

    const auto fail = [&](const std::string &why) {
        error = path + ":" + std::to_string(line_no) + ": " + why;
        return false;
    };

    while (std::getline(in, raw)) {
        ++line_no;
        const std::string line = trim(raw);
        if (line.empty() || line[0] == '#')
            continue;

        if (!saw_header) {
            // Only the current header is read. A newer version says
            // so; anything else, the flat v1 replay format included,
            // is not a header.
            unsigned version = 0;
            const bool versioned =
                std::sscanf(line.c_str(), "eaao-scenario v%u", &version) == 1;
            if (versioned && version > kSpecVersion) {
                return fail("scenario version v" +
                            std::to_string(version) +
                            " is newer than this binary supports (max v" +
                            std::to_string(kSpecVersion) +
                            "); rebuild or regenerate the file");
            }
            if (line != header)
                return fail("expected header '" + header + "'");
            saw_header = true;
            continue;
        }

        if (line.front() == '[') {
            if (line.back() != ']' || line.size() < 3)
                return fail("malformed section header '" + line + "'");
            const std::string name = line.substr(1, line.size() - 2);
            if (!isKnownSection(name)) {
                return fail("unknown section [" + name +
                            "] (see docs/scenario-dsl.md for the "
                            "section inventory)");
            }
            if (out.section(name) != nullptr)
                return fail("duplicate section [" + name + "]");
            out.sections.push_back(SpecSection{name, line_no, {}});
            current = &out.sections.back();
            continue;
        }
        if (current == nullptr)
            return fail("content before any [section] header");

        SpecLine sl;
        sl.line_no = line_no;
        sl.raw = line;

        // `key = value` when the text left of the first '=' is one
        // identifier; everything else (including expressions that
        // merely contain '=') is a positional directive.
        const std::size_t eq = line.find('=');
        if (eq != std::string::npos && isIdent(trim(line.substr(0, eq)))) {
            sl.key = trim(line.substr(0, eq));
            sl.value = trim(line.substr(eq + 1));
            if (!tokenize(sl.value, sl.tokens))
                return fail("unclosed '\"' in value of '" + sl.key + "'");
        } else {
            if (!tokenize(line, sl.tokens))
                return fail("unclosed '\"' in directive line");
            if (sl.tokens.empty())
                return fail("empty directive line");
        }
        current->lines.push_back(std::move(sl));
    }

    if (!saw_header) {
        line_no = 1;
        return fail("empty file (no '" + header + "' header)");
    }
    error.clear();
    return true;
}

std::string
SpecFile::render() const
{
    std::ostringstream out;
    out << "eaao-scenario v" << kSpecVersion << "\n";
    for (const SpecSection &section : sections) {
        out << "\n[" << section.name << "]\n";
        for (const SpecLine &line : section.lines) {
            if (line.isKeyValue())
                out << line.key << " = " << line.value << "\n";
            else
                out << line.raw << "\n";
        }
    }
    return out.str();
}

} // namespace eaao::campaign
