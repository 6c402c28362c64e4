/**
 * @file
 * Operator-precedence reader for the KL0 dialect.
 *
 * Accepts Edinburgh-style clauses with the standard operator table
 * (:-, ;, ->, \+, comparison and arithmetic operators), lists,
 * negative literals and quoted atoms.  Each top-level term is one
 * clause or directive, terminated with a full stop.
 */

#ifndef PSI_KL0_READER_HPP
#define PSI_KL0_READER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "kl0/term.hpp"
#include "kl0/token.hpp"

namespace psi {
namespace kl0 {

/**
 * Deepest term the reader accepts, and deepest nesting it reads.
 * The reader and every consumer of a read term - normalize, the code
 * generator, the engines' skeleton instantiation - recurse once per
 * level, list cells and operator chains included, so a deeper term
 * would overflow the 8 MiB stack of a service worker.  Measured on
 * x86-64 (GCC 12): at most 570 bytes of stack per level in a release
 * build and 2.5 KB under AddressSanitizer, so this bound keeps the
 * deepest recursion near 1.1 MiB and 4.9 MiB.  Text beyond it is a
 * syntax error (FatalError).
 */
constexpr std::uint32_t kMaxTermDepth = 2000;

/** Parses program text into clause terms. */
class Reader
{
  public:
    explicit Reader(const std::string &text);

    /** Read all clauses until end of input. */
    std::vector<TermPtr> readAll();

    /** Read the next clause; nullptr at end of input. */
    TermPtr readClause();

  private:
    const Token &cur() const { return _tokens[_pos]; }
    const Token &ahead(std::size_t k = 1) const;
    void advance() { ++_pos; }
    [[noreturn]] void syntaxError(const std::string &what) const;

    TermPtr parse(int max_prec);
    TermPtr parsePrimary(int max_prec);
    TermPtr parseVar();
    TermPtr parseArgList(const std::string &functor);
    TermPtr parseList();

    /** True if the current token could begin a term. */
    bool startsTerm() const;

    std::vector<Token> _tokens;
    std::size_t _pos = 0;
    std::uint32_t _nesting = 0; ///< parse() calls under way
    std::uint64_t _anonCounter = 0;
};

/** Parse a single term (no trailing full stop required). */
TermPtr parseTerm(const std::string &text);

/** Parse program text into clauses (convenience wrapper). */
std::vector<TermPtr> parseProgram(const std::string &text);

} // namespace kl0
} // namespace psi

#endif // PSI_KL0_READER_HPP
