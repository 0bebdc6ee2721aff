#include "rdf/ntriples.h"

#include <cctype>
#include <fstream>

#include "common/strings.h"

namespace tcmf::rdf {

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

Result<std::string> Unescape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (i + 1 >= s.size()) return Status::ParseError("dangling escape");
    switch (s[++i]) {
      case '\\':
        out += '\\';
        break;
      case '"':
        out += '"';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      case 't':
        out += '\t';
        break;
      default:
        return Status::ParseError("unknown escape sequence");
    }
  }
  return out;
}

/// Parses one term starting at position `*pos` of `line`; advances *pos
/// past the term and any following whitespace.
Result<Term> ParseTermAt(const std::string& line, size_t* pos) {
  while (*pos < line.size() && std::isspace(
             static_cast<unsigned char>(line[*pos]))) {
    ++*pos;
  }
  if (*pos >= line.size()) return Status::ParseError("missing term");

  auto skip_ws = [&] {
    while (*pos < line.size() &&
           std::isspace(static_cast<unsigned char>(line[*pos]))) {
      ++*pos;
    }
  };

  char c = line[*pos];
  if (c == '<') {
    size_t end = line.find('>', *pos);
    if (end == std::string::npos) {
      return Status::ParseError("unterminated IRI");
    }
    Term t = Iri(line.substr(*pos + 1, end - *pos - 1));
    *pos = end + 1;
    skip_ws();
    return t;
  }
  if (c == '_') {
    if (*pos + 1 >= line.size() || line[*pos + 1] != ':') {
      return Status::ParseError("bad blank node");
    }
    size_t end = *pos + 2;
    while (end < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[end]))) {
      ++end;
    }
    Term t = Blank(line.substr(*pos + 2, end - *pos - 2));
    *pos = end;
    skip_ws();
    return t;
  }
  if (c == '"') {
    // Find the closing unescaped quote.
    size_t end = *pos + 1;
    while (end < line.size()) {
      if (line[end] == '\\') {
        end += 2;
        continue;
      }
      if (line[end] == '"') break;
      ++end;
    }
    if (end >= line.size()) {
      return Status::ParseError("unterminated literal");
    }
    Result<std::string> lexical =
        Unescape(line.substr(*pos + 1, end - *pos - 1));
    if (!lexical.ok()) return lexical.status();
    *pos = end + 1;
    std::string datatype;
    if (*pos + 1 < line.size() && line[*pos] == '^' &&
        line[*pos + 1] == '^') {
      *pos += 2;
      if (*pos >= line.size() || line[*pos] != '<') {
        return Status::ParseError("bad datatype IRI");
      }
      size_t dt_end = line.find('>', *pos);
      if (dt_end == std::string::npos) {
        return Status::ParseError("unterminated datatype IRI");
      }
      datatype = line.substr(*pos + 1, dt_end - *pos - 1);
      *pos = dt_end + 1;
    }
    skip_ws();
    if (datatype.empty()) return Literal(std::move(lexical).value());
    return TypedLiteral(std::move(lexical).value(), std::move(datatype));
  }
  return Status::ParseError("unrecognized term start: '" +
                            std::string(1, c) + "'");
}

}  // namespace

std::string ToNTriplesTerm(const Term& term) {
  switch (term.kind) {
    case Term::Kind::kIri:
      return "<" + term.lexical + ">";
    case Term::Kind::kBlank:
      return "_:" + term.lexical;
    case Term::Kind::kLiteral: {
      // Appended piecewise: GCC 12 reports a false -Wrestrict on the
      // equivalent operator+ chain.
      std::string out = "\"";
      out += Escape(term.lexical);
      out += '"';
      if (!term.datatype.empty()) {
        out += "^^<";
        out += term.datatype;
        out += '>';
      }
      return out;
    }
  }
  return "";
}

std::string ToNTriplesLine(const Triple& triple) {
  return ToNTriplesTerm(triple.s) + " " + ToNTriplesTerm(triple.p) + " " +
         ToNTriplesTerm(triple.o) + " .";
}

Result<Triple> ParseNTriplesLine(const std::string& line) {
  std::string_view trimmed = StrTrim(line);
  if (trimmed.empty() || trimmed[0] == '#') {
    return Status::NotFound("comment or blank line");
  }
  std::string body(trimmed);
  size_t pos = 0;
  Result<Term> s = ParseTermAt(body, &pos);
  if (!s.ok()) return s.status();
  Result<Term> p = ParseTermAt(body, &pos);
  if (!p.ok()) return p.status();
  Result<Term> o = ParseTermAt(body, &pos);
  if (!o.ok()) return o.status();
  if (pos >= body.size() || body[pos] != '.') {
    return Status::ParseError("missing terminating dot");
  }
  return Triple{std::move(s).value(), std::move(p).value(),
                std::move(o).value()};
}

Status WriteNTriples(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IoError("cannot open for writing: " + path);
  }
  for (const EncodedTriple& enc : graph.triples()) {
    std::optional<Triple> t = graph.dictionary().Decode(enc);
    if (!t) continue;
    out << ToNTriplesLine(*t) << '\n';
  }
  out.close();
  if (out.fail()) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<size_t> ReadNTriples(const std::string& path, Graph* graph) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IoError("cannot open: " + path);
  std::string line;
  size_t loaded = 0;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    Result<Triple> t = ParseNTriplesLine(line);
    if (!t.ok()) {
      if (t.status().code() == StatusCode::kNotFound) continue;  // comment
      return Status::ParseError(StrFormat("%s:%zu: %s", path.c_str(),
                                          line_no,
                                          t.status().message().c_str()));
    }
    graph->Add(t.value());
    ++loaded;
  }
  return loaded;
}

}  // namespace tcmf::rdf
