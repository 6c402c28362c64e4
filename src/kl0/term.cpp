#include "kl0/term.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "base/strutil.hpp"

namespace psi {
namespace kl0 {

Term::Term(Kind k, std::string name, std::int64_t v,
           std::vector<TermPtr> args)
    : _kind(k), _name(std::move(name)), _value(v), _args(std::move(args))
{
    for (const TermPtr &a : _args)
        _depth = std::max(_depth, a->_depth + 1);
}

namespace {

/** Terms up to this deep are released recursively (a few KiB of
 *  stack); deeper ones through the worklist. */
constexpr std::uint32_t kRecursiveReleaseDepth = 64;

/** Subterms whose release is deferred to the outermost ~Term of this
 *  thread; null when no release is under way. */
thread_local std::vector<TermPtr> *t_releasing = nullptr;

/** True when dropping @p t here would destroy a compound term. */
bool
lastCompoundRef(const TermPtr &t)
{
    return t.use_count() == 1 && t->isCompound();
}

} // namespace

Term::~Term()
{
    // Releasing the arguments recursively would nest one destructor
    // per level of the term, so a deep chain overflows the stack.
    // Instead the outermost destructor of a deep term drains a
    // worklist, and every deep destructor it triggers hands its
    // compound arguments to that list rather than releasing them
    // itself.  Shallow terms, nearly all of them, skip the list.
    if (_depth <= kRecursiveReleaseDepth)
        return;
    if (t_releasing) {
        for (TermPtr &a : _args) {
            if (lastCompoundRef(a))
                t_releasing->push_back(std::move(a));
        }
        return;
    }
    std::vector<TermPtr> pending;
    for (TermPtr &a : _args) {
        if (lastCompoundRef(a))
            pending.push_back(std::move(a));
    }
    if (pending.empty())
        return;
    t_releasing = &pending;
    while (!pending.empty()) {
        TermPtr t = std::move(pending.back());
        pending.pop_back();
        t.reset();
    }
    t_releasing = nullptr;
}

TermPtr
Term::var(std::string name)
{
    return TermPtr(new Term(Kind::Var, std::move(name), 0, {}));
}

TermPtr
Term::atom(std::string name)
{
    return TermPtr(new Term(Kind::Atom, std::move(name), 0, {}));
}

TermPtr
Term::integer(std::int64_t v)
{
    return TermPtr(new Term(Kind::Int, "", v, {}));
}

TermPtr
Term::compound(std::string functor, std::vector<TermPtr> args)
{
    if (args.empty())
        return atom(std::move(functor));
    return TermPtr(
        new Term(Kind::Compound, std::move(functor), 0, std::move(args)));
}

TermPtr
Term::nil()
{
    return atom("[]");
}

TermPtr
Term::list(std::vector<TermPtr> elems, TermPtr tail)
{
    TermPtr t = tail ? std::move(tail) : nil();
    for (auto it = elems.rbegin(); it != elems.rend(); ++it)
        t = compound(".", {*it, t});
    return t;
}

bool
Term::isCallable(const std::string &name, std::size_t arity) const
{
    if (arity == 0)
        return isAtom() && _name == name;
    return isCompound() && _name == name && _args.size() == arity;
}

bool
Term::equals(const Term &o) const
{
    if (_kind != o._kind)
        return false;
    switch (_kind) {
      case Kind::Var:
      case Kind::Atom:
        return _name == o._name;
      case Kind::Int:
        return _value == o._value;
      case Kind::Compound:
        if (_name != o._name || _args.size() != o._args.size())
            return false;
        for (std::size_t i = 0; i < _args.size(); ++i) {
            if (!_args[i]->equals(*o._args[i]))
                return false;
        }
        return true;
    }
    return false;
}

namespace {

void
printTerm(const Term &t, std::ostream &os,
          std::map<std::string, std::string> *rename)
{
    switch (t.kind()) {
      case Term::Kind::Var:
        if (rename) {
            auto it = rename->find(t.name());
            if (it == rename->end()) {
                std::string fresh = "_";
                std::size_t n = rename->size();
                do {
                    fresh.push_back(static_cast<char>('A' + n % 26));
                    n /= 26;
                } while (n > 0);
                it = rename->emplace(t.name(), fresh).first;
            }
            os << it->second;
        } else {
            os << t.name();
        }
        break;
      case Term::Kind::Atom:
        if (strutil::atomNeedsQuotes(t.name()))
            os << '\'' << t.name() << '\'';
        else
            os << t.name();
        break;
      case Term::Kind::Int:
        os << t.value();
        break;
      case Term::Kind::Compound:
        if (t.isCons()) {
            os << '[';
            const Term *cur = &t;
            bool first = true;
            while (cur->isCons()) {
                if (!first)
                    os << ',';
                printTerm(*cur->args()[0], os, rename);
                first = false;
                cur = cur->args()[1].get();
            }
            if (!cur->isNil()) {
                os << '|';
                printTerm(*cur, os, rename);
            }
            os << ']';
        } else {
            if (strutil::atomNeedsQuotes(t.name()))
                os << '\'' << t.name() << '\'';
            else
                os << t.name();
            os << '(';
            for (std::size_t i = 0; i < t.args().size(); ++i) {
                if (i)
                    os << ',';
                printTerm(*t.args()[i], os, rename);
            }
            os << ')';
        }
        break;
    }
}

} // namespace

std::string
Term::str() const
{
    std::ostringstream os;
    printTerm(*this, os, nullptr);
    return os.str();
}

std::string
Term::canonicalStr() const
{
    std::ostringstream os;
    std::map<std::string, std::string> rename;
    printTerm(*this, os, &rename);
    return os.str();
}

} // namespace kl0
} // namespace psi
