/* A traversal whose body allocates into a pointer of the list's type and
 * never links the cell. Nothing reads `tmp` before its next `malloc`, so
 * lowering ends it with a `tmp = NULL` on the loop's back edge. That kill
 * drops the cell's last reference: the leak is reported at the kill
 * (`may_fail`), and the `malloc` that rebinds the killed `tmp` is
 * leak-`safe`. */
struct node { int v; struct node *nxt; };
int main() {
    struct node *list; struct node *p; struct node *tmp; int i;
    list = NULL;
    for (i = 0; i < 4; i++) {
        p = (struct node *) malloc(sizeof(struct node));
        p->nxt = list;
        list = p;
    }
    p = list;
    while (p != NULL) {
        tmp = (struct node *) malloc(sizeof(struct node));
        tmp->v = p->v;
        p = p->nxt;
    }
    // @assert shape(list, list); expect holds
    // @assert !shared(list->nxt); expect holds
    return 0;
}
