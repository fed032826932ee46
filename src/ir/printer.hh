/**
 * @file
 * Textual rendering of mini-IR instructions, shared by the text
 * format's writer (ir/text.hh), debugging output and golden tests.
 */

#ifndef TXRACE_IR_PRINTER_HH
#define TXRACE_IR_PRINTER_HH

#include <string>

#include "ir/program.hh"

namespace txrace::ir {

/** Render one instruction as a single line (no trailing newline). */
std::string formatInstr(const Instruction &ins);

} // namespace txrace::ir

#endif // TXRACE_IR_PRINTER_HH
