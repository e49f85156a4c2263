#include "lang/lexer.h"

#include <cctype>
#include <charconv>

#include "common/string_util.h"

namespace flex::lang {

Result<std::vector<Token>> Tokenize(const std::string& source) {
  std::vector<Token> tokens;
  size_t i = 0;
  const size_t n = source.size();
  while (i < n) {
    const char c = source[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments: /* ... */ (the paper's fraud query uses them).
    if (c == '/' && i + 1 < n && source[i + 1] == '*') {
      const size_t close = source.find("*/", i + 2);
      if (close == std::string::npos) {
        return Status::ParseError("unterminated comment");
      }
      i = close + 2;
      continue;
    }
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      const size_t eol = source.find('\n', i);
      i = eol == std::string::npos ? n : eol + 1;
      continue;
    }
    Token tok;
    tok.offset = i;
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t j = i;
      while (j < n && (std::isalnum(static_cast<unsigned char>(source[j])) ||
                       source[j] == '_')) {
        ++j;
      }
      tok.kind = TokKind::kIdent;
      tok.text = source.substr(i, j - i);
      i = j;
    } else if (std::isdigit(static_cast<unsigned char>(c))) {
      size_t j = i;
      bool is_float = false;
      while (j < n && (std::isdigit(static_cast<unsigned char>(source[j])) ||
                       source[j] == '.')) {
        if (source[j] == '.') {
          // ".." or ".name" => not part of the number.
          if (j + 1 >= n ||
              !std::isdigit(static_cast<unsigned char>(source[j + 1]))) {
            break;
          }
          is_float = true;
        }
        ++j;
      }
      tok.text = source.substr(i, j - i);
      const char* first = tok.text.data();
      const char* last = first + tok.text.size();
      if (is_float) {
        tok.kind = TokKind::kFloat;
        if (std::from_chars(first, last, tok.float_value).ec != std::errc()) {
          return Status::ParseError("bad number: " + tok.text);
        }
      } else {
        tok.kind = TokKind::kInt;
        if (std::from_chars(first, last, tok.int_value).ec != std::errc()) {
          return Status::ParseError("bad integer: " + tok.text);
        }
      }
      i = j;
    } else if (c == '\'' || c == '"') {
      size_t j = i + 1;
      std::string value;
      while (j < n && source[j] != c) {
        value.push_back(source[j]);
        ++j;
      }
      if (j >= n) return Status::ParseError("unterminated string");
      tok.kind = TokKind::kString;
      tok.text = std::move(value);
      i = j + 1;
    } else if (c == '$') {
      size_t j = i + 1;
      while (j < n && std::isdigit(static_cast<unsigned char>(source[j]))) {
        ++j;
      }
      if (j == i + 1) return Status::ParseError("expected digits after $");
      tok.kind = TokKind::kParam;
      tok.text = source.substr(i + 1, j - i - 1);
      if (std::from_chars(tok.text.data(), tok.text.data() + tok.text.size(),
                          tok.int_value)
              .ec != std::errc()) {
        return Status::ParseError("bad parameter index: $" + tok.text);
      }
      i = j;
    } else {
      tok.kind = TokKind::kPunct;
      // Multi-char punctuation first.
      static const char* kMulti[] = {"->", "<-", "<=", ">=", "<>", "!=", "=~"};
      tok.text = std::string(1, c);
      for (const char* m : kMulti) {
        if (source.compare(i, 2, m) == 0) {
          tok.text = m;
          break;
        }
      }
      i += tok.text.size();
    }
    tokens.push_back(std::move(tok));
  }
  Token end;
  end.kind = TokKind::kEnd;
  end.offset = n;
  tokens.push_back(end);
  return tokens;
}

bool TokenStream::TryPunct(const std::string& p) {
  if (Peek().kind == TokKind::kPunct && Peek().text == p) {
    Next();
    return true;
  }
  return false;
}

bool TokenStream::TryKeyword(const std::string& kw) {
  if (PeekKeyword(kw)) {
    Next();
    return true;
  }
  return false;
}

bool TokenStream::PeekKeyword(const std::string& kw) const {
  return Peek().kind == TokKind::kIdent && EqualsIgnoreCase(Peek().text, kw);
}

Status TokenStream::ExpectPunct(const std::string& p) {
  if (!TryPunct(p)) {
    return Status::ParseError("expected '" + p + "' near offset " +
                              std::to_string(Peek().offset) + ", got '" +
                              Peek().text + "'");
  }
  return Status::OK();
}

Result<std::string> TokenStream::ExpectIdent() {
  if (Peek().kind != TokKind::kIdent) {
    return Status::ParseError("expected identifier near offset " +
                              std::to_string(Peek().offset));
  }
  return Next().text;
}

}  // namespace flex::lang
