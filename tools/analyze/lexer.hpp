// mw-analyze: a minimal C++ lexer.
//
// Produces an identifier/punctuation token stream with line numbers, with
// comments and string/char literals stripped out of the stream but comments
// retained per-line (suppressions and `// relaxed:` justifications live in
// them). Preprocessor directive lines (with their `\` continuations) lex
// into a stream of their own: the declaration scanner reads only the code
// stream, where `#define` bodies would be misread as code at namespace
// scope, while the token rules read both. `#include` header names are kept
// as spelled instead of tokenized.
#pragma once

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mwa {

enum class Tok {
    kIdent,   // identifiers and keywords
    kNumber,  // numeric literals (pp-number approximation)
    kString,  // string literal (text dropped)
    kChar,    // char literal (text dropped)
    kPunct,   // every operator/punctuator, one logical token ("::" is one)
};

struct Token {
    Tok kind;
    std::string text;  // identifier spelling or punctuator; empty for literals
    int line = 0;
};

struct LexedFile {
    std::string path;  // display path (root-relative)
    std::vector<Token> tokens;
    std::vector<Token> directive_tokens;  // from `#` lines, `#` included
    // line number -> concatenated comment text appearing on that line. A
    // block comment contributes to the line it STARTS on (trailing
    // justifications and allow() markers are same-line by convention).
    std::unordered_map<int, std::string> comments;
    // One entry per `#include` line: (line, header as spelled, e.g. "<cassert>").
    std::vector<std::pair<int, std::string>> includes;
};

/// Tokenize `text`. Never fails: unrecognized bytes are skipped.
LexedFile lex(const std::string& path, const std::string& text);

}  // namespace mwa
