/// \file generators.hpp
/// Structured benchmark-circuit generators.
///
/// The paper evaluates on ISCAS'85 / MCNC'91 benchmarks, which are not
/// redistributable here; these generators produce deterministic circuits
/// of the same structural families (multiplexers, adders, ECC XOR planes,
/// symmetric functions, ALUs, substitution-permutation networks, random
/// control logic) sized to land near the paper's per-circuit transistor
/// counts.  See DESIGN.md section 3 for the substitution argument and
/// registry.hpp for the name -> generator mapping.
///
/// All generators are pure functions of their parameters (internal
/// randomness is seeded), so every table in bench/ is reproducible.
#pragma once

#include <cstdint>
#include <vector>

#include "soidom/network/network.hpp"

namespace soidom {

/// 2^select_bits : 1 multiplexer tree (cm150 / mux family).
Network gen_mux_tree(int select_bits);

/// Ripple-carry adder: two `bits`-wide operands (+ carry-in), sum and
/// carry-out (z4ml family).
Network gen_ripple_adder(int bits, bool with_cin = true);

/// Incrementer / counter next-state logic with terminal-count output.
Network gen_incrementer(int bits);

/// Totally symmetric function: 1 iff popcount(inputs) is in `accepted`
/// (9symml / t481 family).
Network gen_symmetric(int inputs, const std::vector<int>& accepted);

/// ECC-style XOR plane: each output is the XOR of `subset` distinct,
/// seeded-randomly chosen inputs (c499 / c1355 / c1908 family).
Network gen_xor_tree(int inputs, int outputs, int subset, std::uint64_t seed);

/// Priority / interrupt arbiter with enable chain (c432 family).
Network gen_priority(int inputs);

/// Barrel rotator: `width` data bits rotated by a select value
/// (rot family).
Network gen_barrel_rotator(int width, int select_bits);

/// Substitution-permutation network: `rounds` rounds of seeded 3-bit
/// S-boxes, bit permutation and neighbour mixing over `width` bits
/// (des family).
Network gen_spn(int width, int rounds, std::uint64_t seed);

/// Small ALU: add / and / or / xor of two operands selected by 2 op bits
/// (c880 / dalu / c3540 family).
Network gen_alu_like(int bits, std::uint64_t seed);

/// Two-level random logic: `cubes` random product terms over `inputs`
/// literals, each output ORing an expected 1/or_denom share of the cubes
/// (i6 / PLA-style circuits).
Network gen_two_level(int inputs, int cubes, int outputs, int or_denom,
                      std::uint64_t seed);

/// Seeded random AND/OR/INV DAG (control-logic stand-in: frg1, b9, apex*,
/// k2, ...).
Network gen_random_dag(int pis, int gates, int pos, std::uint64_t seed);

/// Seeded random layered DAG with *controlled* level width and depth:
/// `depth` layers of `width` AND/OR nodes each, every node combining two
/// distinct signals drawn mostly from the immediately previous layer
/// (locality `back_weight` in [1, 100]: the percent chance a fanin comes
/// from the previous layer rather than any earlier one — 100 gives a
/// strict layer pipeline, lower values long skip edges).  Inverted
/// literals appear with 1/8 probability, so the unate conversion sees a
/// realistic binate mix.  Scale-bench workhorse: node count = width x
/// depth by construction (before hashing / dead-node removal), with level
/// width ~= `width` — wide-shallow and narrow-deep shapes of the same
/// size.
Network gen_layered_dag(int width, int depth, int back_weight,
                        std::uint64_t seed);

/// CORDIC-like iterative shift-add datapath: `stages` stages over a
/// `width`-bit x/y pair (cordic family).
Network gen_cordic(int width, int stages);

/// Array multiplier: `bits` x `bits` partial products reduced with
/// ripple-carry rows (c6288 family — the densest series/parallel mix of
/// the classic suites).
Network gen_multiplier(int bits);

/// Binary decoder: `select_bits` inputs, one-hot 2^select_bits outputs
/// with an enable (wide AND plane).
Network gen_decoder(int select_bits);

}  // namespace soidom
