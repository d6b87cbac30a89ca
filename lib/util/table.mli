(** ASCII table rendering for experiment output.

    [rme experiment] prints every reproduced table/figure as rows of
    aligned columns, in the spirit of the series a paper plot would show. *)

type t

val create : title:string -> columns:string list -> t
(** A fresh table with the given column headers. *)

val add_row : t -> string list -> unit
(** Append a row; the row must have as many cells as there are columns. *)

val add_rowf : t -> ('a, unit, string, unit) format4 -> 'a
(** [add_rowf t fmt ...] formats a single string and splits it on ['|']
    characters into cells. Convenient for numeric rows. *)

val render : t -> string
(** The table as a string, with a title line, a header, a rule, and the
    rows, all columns padded to their widest cell. *)

val print : t -> unit
(** [render] followed by printing to stdout with a trailing newline. *)
