import com.sun.source.tree.AnnotationTree;
import com.sun.source.tree.CompilationUnitTree;
import com.sun.source.tree.MethodTree;
import com.sun.source.util.JavacTask;
import com.sun.source.util.SourcePositions;
import com.sun.source.util.TreePathScanner;
import com.sun.source.util.Trees;
import java.io.FileOutputStream;
import java.io.FileDescriptor;
import java.io.IOException;
import java.io.PrintStream;
import java.nio.charset.StandardCharsets;
import java.util.ArrayList;
import java.util.Arrays;
import java.util.List;
import javax.tools.Diagnostic;
import javax.tools.JavaCompiler;
import javax.tools.JavaFileObject;
import javax.tools.StandardJavaFileManager;
import javax.tools.ToolProvider;

/**
 * Prints every method with a body that javac's parser finds in the given
 * UTF-8 files, one tab-separated line each, in source order:
 * path, name, name start, name end, body start, body end, then each
 * annotation's start and end. The Tree API gives no name position, but a
 * note reported on a method carries the parser's position of its name.
 * Offsets count code points from the start of the file, so they index
 * the file's text as Python reads it. Constructors are left out. Nothing
 * is type-checked and no annotation processor runs.
 *
 *   javac -d OUT MethodDump.java && java -cp OUT MethodDump A.java B.java
 */
public final class MethodDump {
    public static void main(String[] args) throws IOException {
        PrintStream out = new PrintStream(new FileOutputStream(FileDescriptor.out), false, StandardCharsets.UTF_8);
        JavaCompiler compiler = ToolProvider.getSystemJavaCompiler();
        try (StandardJavaFileManager files = compiler.getStandardFileManager(null, null, StandardCharsets.UTF_8)) {
            Iterable<? extends JavaFileObject> units = files.getJavaFileObjects(args);
            List<Diagnostic<? extends JavaFileObject>> notes = new ArrayList<>();
            JavacTask task = (JavacTask) compiler.getTask(
                    null, files, notes::add, List.of("-proc:none", "-encoding", "UTF-8"), null, units);
            Trees trees = Trees.instance(task);
            SourcePositions positions = trees.getSourcePositions();
            for (CompilationUnitTree unit : task.parse()) {
                String text = unit.getSourceFile().getCharContent(true).toString();
                new TreePathScanner<Void, Void>() {
                    @Override
                    public Void visitMethod(MethodTree method, Void unused) {
                        if (method.getBody() != null && !method.getName().contentEquals("<init>")) {
                            trees.printMessage(Diagnostic.Kind.NOTE, "name", method, unit);
                            int name = (int) notes.remove(notes.size() - 1).getPosition();
                            List<String> fields = new ArrayList<>(Arrays.asList(
                                    unit.getSourceFile().getName(), method.getName().toString(),
                                    points(name), points(name + method.getName().length()),
                                    offset(method.getBody(), false), offset(method.getBody(), true)));
                            for (AnnotationTree annotation : method.getModifiers().getAnnotations()) {
                                fields.add(offset(annotation, false));
                                fields.add(offset(annotation, true));
                            }
                            out.println(String.join("\t", fields));
                        }
                        return super.visitMethod(method, unused);
                    }

                    private String offset(com.sun.source.tree.Tree tree, boolean end) {
                        long at = end ? positions.getEndPosition(unit, tree) : positions.getStartPosition(unit, tree);
                        return points((int) at);
                    }

                    private String points(int at) {
                        return Integer.toString(text.codePointCount(0, at));
                    }
                }.scan(unit, null);
            }
        }
        out.flush();
    }
}
