"""Morse-word diagrams and the bead-sliding words of open tangles.

Diagrams are bottom-to-top sequences of cups, caps and upward crossings.
Traversal labels every crossing line and counts signed extrema; the
invariant of an open tangle is the sum, over assignments of tensor-square
entries to crossings, of twisted bead products.
"""

from oqa import (
    SymbolTable,
    build_balanced_example2,
    builtin,
    evaluate_tangle,
    compose_tangles,
    formal_word,
    parse_diagram,
    serialize,
    stats,
    traverse,
)

print("== the one-kink tangle ==")
curl = builtin("curl")
print("word:", serialize(curl, sep=" / "))
record = traverse(curl)
for label in record.components[0].labels:
    print(f"  line of crossing {label.crossing}: factor {label.tensorand},"
          f" u_d = {label.u}, u_u = {label.u}")
print("formal word:", formal_word(curl).component_text(0))

table = SymbolTable(["a", "sbc", "b"])
a, sbc, b = table.syms("a", "sbc", "b")
S = build_balanced_example2(table, 2, a, sbc * sbc, {(1, 2): b}, table.one)

print("\n== evaluated kink words, n = 2 symbolic ==")
print("w(curl)    =", evaluate_tangle(S, curl).text())
print("w(curl_op) =", evaluate_tangle(S, builtin("curl_op")).text())

print("\n== the three-crossing tangle ==")
tre = builtin("trefoil_tangle")
print("word:", serialize(tre, sep=" / "))
print("formal word:", formal_word(tre).component_text(0))
print("w =", evaluate_tangle(S, tre).text())

print("\n== composition is multiplicative ==")
left = evaluate_tangle(S, compose_tangles(curl, tre))
right = evaluate_tangle(S, curl) * evaluate_tangle(S, tre)
print("w(curl * trefoil) == w(curl) w(trefoil):", left == right)

print("\n== parsing the two-component closed diagram ==")
hopf = parse_diagram("cup_ccw 0 / cup_cw 2 / xp 1 / xp 1 / cap_cw 2 / cap_ccw 0")
st = stats(hopf)
print("writhe:", st.writhe, " per-component Whitney degrees:", st.whitney)
for k, comp in enumerate(traverse(hopf).components):
    pattern = [(l.crossing, l.tensorand) for l in comp.labels]
    print(f"  component {k}: crossing lines {pattern}")
