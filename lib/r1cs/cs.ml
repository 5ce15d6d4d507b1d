type var = { id : int; value : Fp.t }

type lc = (Fp.t * var) list

type cstr = { a : lc; b : lc; c : lc; label : string option }

type t = {
  recording : bool;
  mutable values : Fp.t array;
  mutable num_vars : int; (* includes the constant wire *)
  mutable num_inputs : int;
  mutable has_aux : bool;
  mutable constrs : cstr list; (* reversed; always [] on a witness-only board *)
  mutable n_constrs : int;
  wire_labels : (int, string) Hashtbl.t;
}

let one_var = { id = 0; value = Fp.one }

let make ~recording =
  {
    recording;
    values = Array.make 64 Fp.zero;
    num_vars = 1;
    num_inputs = 0;
    has_aux = false;
    constrs = [];
    n_constrs = 0;
    wire_labels = Hashtbl.create 16;
  }

let create () = make ~recording:true
let create_witness () = make ~recording:false
let recording cs = cs.recording

let record synth =
  let cs = create () in
  synth cs;
  cs

let structure_only fn cs =
  if not cs.recording then
    invalid_arg (Printf.sprintf "Cs.%s: a witness-only board records no structure" fn)

let grow cs =
  if cs.num_vars >= Array.length cs.values then begin
    let bigger = Array.make (2 * Array.length cs.values) Fp.zero in
    Array.blit cs.values 0 bigger 0 cs.num_vars;
    cs.values <- bigger
  end

let push cs ?label value =
  grow cs;
  let id = cs.num_vars in
  cs.values.(id) <- value;
  cs.num_vars <- id + 1;
  if cs.recording then Option.iter (fun l -> Hashtbl.replace cs.wire_labels id l) label;
  { id; value }

let alloc cs ?label v =
  cs.has_aux <- true;
  push cs ?label v

let alloc_input cs ?label v =
  if cs.has_aux then invalid_arg "Cs.alloc_input: auxiliary wires already allocated";
  cs.num_inputs <- cs.num_inputs + 1;
  push cs ?label v

let var_value v = v.value

let wire_label cs v =
  structure_only "wire_label" cs;
  Hashtbl.find_opt cs.wire_labels v.id

let enforce cs ?label a b c =
  if cs.recording then cs.constrs <- { a; b; c; label } :: cs.constrs;
  cs.n_constrs <- cs.n_constrs + 1

let value cs v = if v.id = 0 then Fp.one else cs.values.(v.id)

let lc_value cs lc =
  List.fold_left (fun acc (coeff, v) -> Fp.add acc (Fp.mul coeff (value cs v))) Fp.zero lc

let set_value cs v x =
  if v.id = 0 then invalid_arg "Cs.set_value: constant wire";
  cs.values.(v.id) <- x

let simplify (e : lc) : lc =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (coeff, var) ->
      match Hashtbl.find_opt tbl var.id with
      | None ->
        Hashtbl.replace tbl var.id (coeff, var);
        order := var.id :: !order
      | Some (c, _) -> Hashtbl.replace tbl var.id (Fp.add c coeff, var))
    e;
  List.rev_map (fun id -> Hashtbl.find tbl id) !order
  |> List.filter (fun ((c : Fp.t), _) -> not (Fp.is_zero c))

let num_vars cs = cs.num_vars
let num_inputs cs = cs.num_inputs
let num_constraints cs = cs.n_constrs

let constraints cs =
  structure_only "constraints" cs;
  Array.of_list (List.rev_map (fun c -> (c.a, c.b, c.c)) cs.constrs)

let iter_constraints cs f =
  structure_only "iter_constraints" cs;
  List.iteri (fun i c -> f ~index:i ~label:c.label c.a c.b c.c) (List.rev cs.constrs)

let fold_constraints cs ~init ~f =
  structure_only "fold_constraints" cs;
  let acc = ref init in
  iter_constraints cs (fun ~index ~label a b c -> acc := f !acc ~index ~label a b c);
  !acc

let assignment cs =
  let a = Array.sub cs.values 0 cs.num_vars in
  a.(0) <- Fp.one;
  a

let public_inputs cs = Array.init cs.num_inputs (fun i -> cs.values.(i + 1))

let check cs c =
  Fp.equal (Fp.mul (lc_value cs c.a) (lc_value cs c.b)) (lc_value cs c.c)

let is_satisfied cs =
  structure_only "is_satisfied" cs;
  List.for_all (check cs) cs.constrs

let find_unsatisfied cs =
  structure_only "find_unsatisfied" cs;
  let indexed = List.rev cs.constrs in
  let rec go i = function
    | [] -> None
    | c :: rest ->
      if check cs c then go (i + 1) rest
      else Some (match c.label with Some l -> l | None -> Printf.sprintf "constraint #%d" i)
  in
  go 0 indexed

let var_of_int cs i =
  if i < 0 || i >= cs.num_vars then invalid_arg "Cs.var_of_int: no such wire";
  { id = i; value = (if i = 0 then Fp.one else cs.values.(i)) }

let int_of_var v = v.id
