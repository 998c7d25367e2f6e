#include "lexer.hpp"

#include <cctype>

namespace mwa {
namespace {

bool ident_start(char c) { return std::isalpha(static_cast<unsigned char>(c)) || c == '_'; }
bool ident_char(char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; }

// Multi-character punctuators we keep as ONE token. Order matters (longest
// first). Everything else is emitted as a single character.
const char* kPuncts[] = {
    "->*", "<<=", ">>=", "...", "::", "->", "<<", ">>", "<=", ">=", "==", "!=",
    "&&",  "||",  "++",  "--",  "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
};

}  // namespace

LexedFile lex(const std::string& path, const std::string& text) {
    LexedFile out;
    out.path = path;
    int line = 1;
    std::size_t i = 0;
    const std::size_t n = text.size();
    bool at_line_start = true;  // only whitespace seen since the last newline

    auto append_comment = [&out](int at, const std::string& body) {
        std::string& slot = out.comments[at];
        if (!slot.empty()) slot += ' ';
        slot += body;
    };

    // Tokens of a directive line (and its `\` continuations) go to their own
    // stream; every other token goes to out.tokens.
    std::vector<Token>* sink = &out.tokens;

    while (i < n) {
        const char c = text[i];
        if (c == '\\' && i + 1 < n && text[i + 1] == '\n') {  // line splice
            ++line;
            i += 2;
            continue;
        }
        if (c == '\n') {
            ++line;
            ++i;
            at_line_start = true;
            sink = &out.tokens;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        // Preprocessor directive: the rest of the line lexes into the
        // directive stream. An `#include` records its header name instead.
        if (c == '#' && at_line_start) {
            at_line_start = false;
            sink = &out.directive_tokens;
            sink->push_back({Tok::kPunct, "#", line});
            std::size_t j = text.find_first_not_of(" \t", ++i);
            if (j != std::string::npos && text.compare(j, 7, "include") == 0) {
                j = text.find_first_not_of(" \t", j + 7);
                const char open = j == std::string::npos ? '\0' : text[j];
                const std::size_t close =
                    open == '<' ? text.find('>', j) : open == '"' ? text.find('"', j + 1) : j;
                if (close != std::string::npos && close > j && text.find('\n', j) > close) {
                    out.includes.emplace_back(line, text.substr(j, close + 1 - j));
                    i = close + 1;
                }
            }
            continue;
        }
        at_line_start = false;
        // Comments.
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
            std::size_t j = text.find('\n', i);
            if (j == std::string::npos) j = n;
            append_comment(line, text.substr(i, j - i));
            i = j;
            continue;
        }
        if (c == '/' && i + 1 < n && text[i + 1] == '*') {
            std::size_t j = text.find("*/", i + 2);
            if (j == std::string::npos) j = n;
            const std::size_t end = j == n ? n : j + 2;
            append_comment(line, text.substr(i, end - i));
            for (std::size_t k = i; k < end; ++k) {
                if (text[k] == '\n') ++line;
            }
            i = end;
            continue;
        }
        // Raw string literal (only the plain R"( ... )" / R"tag(...)tag" forms).
        if (c == 'R' && i + 1 < n && text[i + 1] == '"') {
            std::size_t p = i + 2;
            std::string tag;
            while (p < n && text[p] != '(' && tag.size() < 16) tag += text[p++];
            const std::string close = ")" + tag + "\"";
            std::size_t j = text.find(close, p);
            if (j == std::string::npos) j = n;
            const std::size_t end = j == n ? n : j + close.size();
            for (std::size_t k = i; k < end; ++k) {
                if (text[k] == '\n') ++line;
            }
            sink->push_back({Tok::kString, "", line});
            i = end;
            continue;
        }
        // String / char literals.
        if (c == '"' || c == '\'') {
            const char quote = c;
            std::size_t j = i + 1;
            while (j < n) {
                if (text[j] == '\\' && j + 1 < n) {
                    j += 2;
                    continue;
                }
                if (text[j] == quote || text[j] == '\n') break;
                ++j;
            }
            sink->push_back({quote == '"' ? Tok::kString : Tok::kChar, "", line});
            i = j < n ? j + 1 : n;
            continue;
        }
        // Identifiers / keywords.
        if (ident_start(c)) {
            std::size_t j = i + 1;
            while (j < n && ident_char(text[j])) ++j;
            sink->push_back({Tok::kIdent, text.substr(i, j - i), line});
            i = j;
            continue;
        }
        // Numbers (pp-number-ish: digits, dots, exponents, suffixes).
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
            std::size_t j = i + 1;
            while (j < n && (ident_char(text[j]) || text[j] == '.' ||
                             ((text[j] == '+' || text[j] == '-') &&
                              (text[j - 1] == 'e' || text[j - 1] == 'E' ||
                               text[j - 1] == 'p' || text[j - 1] == 'P')))) {
                ++j;
            }
            sink->push_back({Tok::kNumber, text.substr(i, j - i), line});
            i = j;
            continue;
        }
        // Punctuators.
        bool matched = false;
        for (const char* p : kPuncts) {
            const std::size_t len = std::char_traits<char>::length(p);
            if (text.compare(i, len, p) == 0) {
                sink->push_back({Tok::kPunct, p, line});
                i += len;
                matched = true;
                break;
            }
        }
        if (!matched) {
            sink->push_back({Tok::kPunct, std::string(1, c), line});
            ++i;
        }
    }
    return out;
}

}  // namespace mwa
