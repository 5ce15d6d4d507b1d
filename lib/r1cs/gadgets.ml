(* [value] is computed as the expression is built, so gadgets read a
   witness in O(1).  [terms] is forced only by [enforce] on a recording
   board; on a witness-only board no term list is ever built.  [const] is
   structural — "built from constants only" — never derived from the
   value, so both modes fold exactly the same sub-circuits. *)
type expr = { value : Fp.t; const : bool; terms : Cs.lc Lazy.t }

let lc e = Lazy.force e.terms

let v var : expr =
  {
    value = Cs.var_value var;
    const = Cs.int_of_var var = 0;
    terms = Lazy.from_val [ (Fp.one, var) ];
  }

let c k : expr =
  {
    value = k;
    const = true;
    terms = Lazy.from_val (if Fp.is_zero k then [] else [ (k, Cs.one_var) ]);
  }

let ci n = c (Fp.of_int n)

let ( +: ) (a : expr) (b : expr) : expr =
  { value = Fp.add a.value b.value; const = a.const && b.const; terms = lazy (lc a @ lc b) }

let scale k (a : expr) : expr =
  if Fp.is_zero k then c Fp.zero
  else
    {
      value = Fp.mul k a.value;
      const = a.const;
      terms = lazy (List.map (fun (co, var) -> (Fp.mul k co, var)) (lc a));
    }

let ( -: ) a b = a +: scale (Fp.neg Fp.one) b

let eval e = e.value
let as_const e = if e.const then Some e.value else None
let simplify e = { e with terms = lazy (Cs.simplify (lc e)) }

let enforce cs ?label a b c =
  if Cs.recording cs then Cs.enforce cs ?label (lc a) (lc b) (lc c)
  else Cs.enforce cs ?label [] [] []

let mul cs ?label a b =
  let out = Cs.alloc cs ?label (Fp.mul a.value b.value) in
  enforce cs ?label a b (v out);
  out

let square cs a = mul cs a a

let inverse cs a =
  let x = a.value in
  let out = Cs.alloc cs ~label:"inverse" (if Fp.is_zero x then Fp.zero else Fp.inv x) in
  enforce cs ~label:"inverse" a (v out) (c Fp.one);
  out

let enforce_eq cs ?label a b = enforce cs ?label (a -: b) (c Fp.one) (c Fp.zero)

let enforce_bit cs x = enforce cs ~label:"booleanity" x (x -: c Fp.one) (c Fp.zero)

(* The "bit" wire-label prefix is a contract: Zebra_lint checks every wire
   so labelled carries a booleanity constraint. *)
let alloc_bit cs ?label b =
  let label = match label with None -> "bit" | Some l -> "bit:" ^ l in
  let var = Cs.alloc cs ~label (if b then Fp.one else Fp.zero) in
  enforce_bit cs (v var);
  var

(* out = 1 iff a = 0:  witness inv = a^-1 (or 0);
   constraints: a * inv = 1 - out  and  a * out = 0. *)
let is_zero cs a =
  let x = a.value in
  let zero = Fp.is_zero x in
  let out = Cs.alloc cs ~label:"is_zero.out" (if zero then Fp.one else Fp.zero) in
  let invw = Cs.alloc cs ~label:"is_zero.inv" (if zero then Fp.zero else Fp.inv x) in
  enforce cs ~label:"is_zero/inv" a (v invw) (c Fp.one -: v out);
  enforce cs ~label:"is_zero/out" a (v out) (c Fp.zero);
  out

let eq cs a b = is_zero cs (a -: b)

(* out = b + cond * (a - b): one constraint.  [cond] is any boolean-valued
   expression, so gadgets returning boolean expressions (less_than, a
   complemented bit, ...) can steer a select without an adapter wire. *)
let select cs ~cond a b =
  let out = Cs.alloc cs ~label:"select" (if Fp.equal cond.value Fp.one then a.value else b.value) in
  enforce cs ~label:"select" cond (a -: b) (v out -: b);
  out

let pack_bits bits =
  let acc = ref (c Fp.zero) in
  let pow = ref Fp.one in
  Array.iter
    (fun b ->
      acc := !acc +: scale !pow (v b);
      pow := Fp.add !pow !pow)
    bits;
  !acc

let bits_of_expr cs a n =
  if n > 253 then invalid_arg "Gadgets.bits_of_expr: too many bits for soundness";
  let x = Nat.rem (Fp.to_nat a.value) (Nat.shift_left Nat.one n) in
  let bits = Array.init n (fun i -> alloc_bit cs (Nat.testbit x i)) in
  enforce_eq cs ~label:"bit recomposition" (pack_bits bits) a;
  bits

let less_than cs a b ~bits =
  if bits > 250 then invalid_arg "Gadgets.less_than: too many bits";
  (* d = a - b + 2^bits is in [1, 2^{bits+1} - 1]; its top bit is 1 iff a >= b. *)
  let shift = Fp.pow_int Fp.two bits in
  let d = a -: b +: c shift in
  let dbits = bits_of_expr cs d (bits + 1) in
  (* The complement of the (already boolean-constrained) top bit is the
     answer; returning it as an expression costs no further wire or
     constraint.  An earlier version allocated a copy wire here — ZL020's
     rank analysis showed it was always uniquely determined, i.e. pure
     redundancy, so it was stripped when the deployed circuits were
     regenerated for the Poseidon migration. *)
  c Fp.one -: v dbits.(bits)

let exp cs ~base ~bits =
  let n = Array.length bits in
  if n = 0 then invalid_arg "Gadgets.exp: empty exponent";
  (* Square-and-multiply, msb first; sel_i = 1 + b_i (base - 1).  When the
     base is a circuit constant the selector is linear (2 constraints/bit
     instead of 3).  Every step's product is a fresh wire, the last one is
     the result. *)
  let const_base = as_const base in
  let out = ref Cs.one_var in
  for i = n - 1 downto 0 do
    let sq = square cs (v !out) in
    let sel =
      match const_base with
      | Some b -> c Fp.one +: scale (Fp.sub b Fp.one) (v bits.(i))
      | None -> c Fp.one +: v (mul cs (v bits.(i)) (base -: c Fp.one))
    in
    out := mul cs (v sq) sel
  done;
  !out

let pow7 cs x =
  let x2 = square cs x in
  let x4 = square cs (v x2) in
  let x6 = mul cs (v x4) (v x2) in
  mul cs (v x6) x

(* Constant folding: an expression built from constants only needs no
   constraints (used for the length-absorption step of mimc_hash, whose
   inputs are literals). *)
let mimc_encrypt cs ~key x =
  match (as_const key, as_const x) with
  | Some k, Some m -> c (Zebra_mimc.Mimc.encrypt ~key:k m)
  | _ ->
    let acc = ref x in
    for i = 0 to Zebra_mimc.Mimc.rounds - 1 do
      let t = !acc +: key +: c Zebra_mimc.Mimc.round_constants.(i) in
      acc := v (pow7 cs t)
    done;
    !acc +: key

let mimc_compress cs h m = mimc_encrypt cs ~key:h m +: m +: h

let mimc_hash cs ms =
  let len = ci (List.length ms) in
  List.fold_left (fun h m -> mimc_compress cs h m) (mimc_compress cs (c Fp.zero) len) ms

let merkle_root cs ~leaf ~path_bits ~siblings =
  let depth = Array.length path_bits in
  if Array.length siblings <> depth then invalid_arg "Gadgets.merkle_root: length mismatch";
  let cur = ref leaf in
  for i = 0 to depth - 1 do
    let bit = path_bits.(i) and sib = v siblings.(i) in
    (* bit = 1 means current node is the right child. *)
    let left = v (select cs ~cond:(v bit) sib !cur) in
    let right = sib +: !cur -: left in
    cur := mimc_hash cs [ left; right ]
  done;
  !cur
