#include "kl0/reader.hpp"

#include <map>
#include <string>

#include "base/logging.hpp"

namespace psi {
namespace kl0 {

namespace {

enum class OpType { xfx, xfy, yfx, fy, fx };

struct OpDef
{
    int prec;
    OpType type;
};

const std::map<std::string, OpDef> &
infixOps()
{
    static const std::map<std::string, OpDef> ops = {
        {":-", {1200, OpType::xfx}},
        {"-->", {1200, OpType::xfx}},
        {";", {1100, OpType::xfy}},
        {"->", {1050, OpType::xfy}},
        {",", {1000, OpType::xfy}},
        {"=", {700, OpType::xfx}},
        {"\\=", {700, OpType::xfx}},
        {"==", {700, OpType::xfx}},
        {"\\==", {700, OpType::xfx}},
        {"is", {700, OpType::xfx}},
        {"<", {700, OpType::xfx}},
        {">", {700, OpType::xfx}},
        {"=<", {700, OpType::xfx}},
        {">=", {700, OpType::xfx}},
        {"=:=", {700, OpType::xfx}},
        {"=\\=", {700, OpType::xfx}},
        {"@<", {700, OpType::xfx}},
        {"@>", {700, OpType::xfx}},
        {"@=<", {700, OpType::xfx}},
        {"@>=", {700, OpType::xfx}},
        {"=..", {700, OpType::xfx}},
        {"+", {500, OpType::yfx}},
        {"-", {500, OpType::yfx}},
        {"/\\", {500, OpType::yfx}},
        {"\\/", {500, OpType::yfx}},
        {"xor", {500, OpType::yfx}},
        {"*", {400, OpType::yfx}},
        {"/", {400, OpType::yfx}},
        {"//", {400, OpType::yfx}},
        {"mod", {400, OpType::yfx}},
        {"rem", {400, OpType::yfx}},
        {"<<", {400, OpType::yfx}},
        {">>", {400, OpType::yfx}},
        {"**", {200, OpType::xfx}},
        {"^", {200, OpType::xfy}},
    };
    return ops;
}

const std::map<std::string, OpDef> &
prefixOps()
{
    static const std::map<std::string, OpDef> ops = {
        {":-", {1200, OpType::fx}},
        {"?-", {1200, OpType::fx}},
        {"\\+", {900, OpType::fy}},
        {"-", {200, OpType::fy}},
        {"+", {200, OpType::fy}},
        {"\\", {200, OpType::fy}},
    };
    return ops;
}

} // namespace

Reader::Reader(const std::string &text) : _tokens(tokenize(text)) {}

const Token &
Reader::ahead(std::size_t k) const
{
    std::size_t p = _pos + k;
    if (p >= _tokens.size())
        p = _tokens.size() - 1;
    return _tokens[p];
}

void
Reader::syntaxError(const std::string &what) const
{
    fatal("line ", cur().line, ": syntax error: ", what, " near '",
          cur().text, "'");
}

bool
Reader::startsTerm() const
{
    switch (cur().kind) {
      case TokKind::Atom:
      case TokKind::Var:
      case TokKind::Int:
        return true;
      case TokKind::Punct:
        return cur().text == "(" || cur().text == "[" ||
               cur().text == "{";
      default:
        return false;
    }
}

TermPtr
Reader::parseArgList(const std::string &functor)
{
    // Current token is '('.
    advance();
    std::vector<TermPtr> args;
    args.push_back(parse(999));
    while (cur().isPunct(",")) {
        advance();
        args.push_back(parse(999));
    }
    if (!cur().isPunct(")"))
        syntaxError("expected ')'");
    advance();
    return Term::compound(functor, std::move(args));
}

TermPtr
Reader::parseList()
{
    // Current token is '['.
    advance();
    if (cur().isPunct("]")) {
        advance();
        return Term::nil();
    }
    std::vector<TermPtr> elems;
    elems.push_back(parse(999));
    while (cur().isPunct(",")) {
        advance();
        elems.push_back(parse(999));
    }
    TermPtr tail = nullptr;
    if (cur().isPunct("|")) {
        advance();
        tail = parse(999);
    }
    if (!cur().isPunct("]"))
        syntaxError("expected ']'");
    advance();
    return Term::list(std::move(elems), std::move(tail));
}

TermPtr
Reader::parseVar()
{
    std::string name = cur().text;
    advance();
    if (name == "_")
        name = "_G" + std::to_string(++_anonCounter);
    return Term::var(std::move(name));
}

TermPtr
Reader::parsePrimary(int max_prec)
{
    const Token &t = cur();
    switch (t.kind) {
      case TokKind::Int: {
        auto v = t.value;
        advance();
        return Term::integer(v);
      }
      case TokKind::Var:
        return parseVar();
      case TokKind::Punct:
        if (t.text == "(") {
            advance();
            TermPtr inner = parse(1200);
            if (!cur().isPunct(")"))
                syntaxError("expected ')'");
            advance();
            return inner;
        }
        if (t.text == "[")
            return parseList();
        if (t.text == "{") {
            advance();
            if (cur().isPunct("}")) {
                advance();
                return Term::atom("{}");
            }
            TermPtr inner = parse(1200);
            if (!cur().isPunct("}"))
                syntaxError("expected '}'");
            advance();
            return Term::compound("{}", {inner});
        }
        syntaxError("unexpected punctuation");
      case TokKind::Atom: {
        // Tokens outlive the parse, so names are read in place: the
        // reader recurses through here once per nesting level.
        const std::string &name = t.text;
        // Compound term: atom immediately followed by '('.
        if (ahead().isPunct("(")) {
            advance();
            return parseArgList(name);
        }
        // Prefix operator applied to a term.
        auto pre = prefixOps().find(name);
        if (pre != prefixOps().end() && pre->second.prec <= max_prec) {
            advance();
            if (startsTerm()) {
                // Negative numeric literal folding.
                if (name == "-" && cur().kind == TokKind::Int) {
                    auto v = cur().value;
                    advance();
                    return Term::integer(-v);
                }
                int sub = pre->second.prec -
                          (pre->second.type == OpType::fy ? 0 : 1);
                return Term::compound(name, {parse(sub)});
            }
            // Operator used as a plain atom (e.g. f(-)).
            return Term::atom(name);
        }
        advance();
        return Term::atom(name);
      }
      default:
        syntaxError("unexpected token");
    }
}

TermPtr
Reader::parse(int max_prec)
{
    // Each nested term, bracket or right operand recurses here once.
    struct Nest
    {
        std::uint32_t &n;
        ~Nest() { --n; }
    } nest{++_nesting};
    if (_nesting > kMaxTermDepth)
        syntaxError("term nested deeper than " +
                    std::to_string(kMaxTermDepth));
    TermPtr left = parsePrimary(max_prec);
    int left_prec = 0;

    static const std::string kComma = ",";
    static const std::string kSemicolon = ";";
    for (;;) {
        const std::string *name;
        if (cur().kind == TokKind::Atom) {
            name = &cur().text;
        } else if (cur().isPunct(",")) {
            name = &kComma;
        } else if (cur().isPunct("|")) {
            // '|' as an infix alternative separator (rare); treat as ';'.
            name = &kSemicolon;
        } else {
            break;
        }
        auto it = infixOps().find(*name);
        if (it == infixOps().end())
            break;
        const OpDef &op = it->second;
        if (op.prec > max_prec)
            break;
        int left_max = op.prec - (op.type == OpType::yfx ? 0 : 1);
        int right_max = op.prec - (op.type == OpType::xfy ? 0 : 1);
        if (left_prec > left_max)
            break;
        advance();
        TermPtr right = parse(right_max);
        left = Term::compound(*name, {left, right});
        left_prec = op.prec;
    }
    return left;
}

TermPtr
Reader::readClause()
{
    if (cur().kind == TokKind::Eof)
        return nullptr;
    TermPtr t = parse(1200);
    if (cur().kind != TokKind::End)
        syntaxError("expected '.' at end of clause");
    // Lists and left-associative operator chains are read in a loop,
    // so their depth is checked on the result.
    if (t->depth() > kMaxTermDepth)
        syntaxError("term deeper than " + std::to_string(kMaxTermDepth) +
                    " levels (list elements count as levels)");
    advance();
    return t;
}

std::vector<TermPtr>
Reader::readAll()
{
    std::vector<TermPtr> out;
    while (TermPtr t = readClause())
        out.push_back(t);
    return out;
}

TermPtr
parseTerm(const std::string &text)
{
    // Appending a full stop lets callers omit the terminator; if the
    // text already ends with one, the extra trailing stop is never
    // reached by the single readClause() call.
    Reader r(text + " .");
    return r.readClause();
}

std::vector<TermPtr>
parseProgram(const std::string &text)
{
    Reader r(text);
    return r.readAll();
}

} // namespace kl0
} // namespace psi
