(* The expected verdict of every operation, read from expected.txt: lines
   "<workload> <property> <verdict> <depth>", '#' starts a comment. *)

type verdict =
  | Falsified of int  (** genuine counterexample of this length *)
  | Proved_induction of int
  | Proved_diameter of int
  | Bounded of int  (** no counterexample up to this bound *)

let to_string = function
  | Falsified d -> Printf.sprintf "falsified %d" d
  | Proved_induction d -> Printf.sprintf "proved-induction %d" d
  | Proved_diameter d -> Printf.sprintf "proved-diameter %d" d
  | Bounded d -> Printf.sprintf "bounded %d" d

let verdict_of kind depth =
  match kind with
  | "falsified" -> Some (Falsified depth)
  | "proved-induction" -> Some (Proved_induction depth)
  | "proved-diameter" -> Some (Proved_diameter depth)
  | "bounded" -> Some (Bounded depth)
  | _ -> None

type t = ((string * string) * verdict) list

let parse text : (t, string) result =
  let lines = String.split_on_char '\n' text in
  let rec go acc lineno = function
    | [] -> Ok (List.rev acc)
    | line :: rest -> (
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go acc (lineno + 1) rest
      else
        match List.filter (( <> ) "") (String.split_on_char ' ' line) with
        | [ workload; property; kind; depth ] -> (
          match Option.bind (int_of_string_opt depth) (verdict_of kind) with
          | Some v -> go (((workload, property), v) :: acc) (lineno + 1) rest
          | None -> Error (Printf.sprintf "line %d: bad verdict %S" lineno line))
        | _ -> Error (Printf.sprintf "line %d: expected 4 fields: %S" lineno line))
  in
  go [] 1 lines

let properties (t : t) ~workload =
  List.filter_map (fun ((w, p), _) -> if w = workload then Some p else None) t

let expected (t : t) ~workload ~property = List.assoc_opt (workload, property) t

(* An operation is correct when its verdict is exactly the recorded one. *)
let check (t : t) ~workload ~property observed =
  match expected t ~workload ~property with
  | None -> Error (Printf.sprintf "%s/%s: no expected verdict" workload property)
  | Some v when v = observed -> Ok ()
  | Some v ->
    Error
      (Printf.sprintf "%s/%s: expected %s, got %s" workload property (to_string v)
         (to_string observed))
